package viz

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"exadigit/internal/httpmw"
)

// TestDashboardBehindBearerAuth pins the serve-mode auth wiring for the
// dashboard mount: every viz endpoint behind httpmw.RequireBearer is a
// 401 without the token and serves normally with it.
func TestDashboardBehindBearerAuth(t *testing.T) {
	srv := httptest.NewServer(httpmw.RequireBearer("twin-token", NewServer(&fakeSource{}, nil).Handler()))
	defer srv.Close()

	for _, path := range []string{"/api/status", "/api/series", "/api/experiments"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("tokenless %s = %d, want 401", path, resp.StatusCode)
		}
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/api/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer twin-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized status = %d, want 200", resp.StatusCode)
	}
}

package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
)

// BenchmarkSimulateHit times one warm /v1/simulate hit through the
// in-process handler: body decoding, admission, the cell-cache lookup
// and the answer.  The cell is simulated once before the timer starts.
func BenchmarkSimulateHit(b *testing.B) {
	suite := harness.NewSuite(1)
	suite.Obs = obs.NewSink()
	h := New(Config{Suite: suite}).Handler()
	body := []byte(`{"benchmark":"blackscholes","l1_kb":8}`)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("simulate: status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

package cluster

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

// TestClientRetryAfterEdgeCases locks down the full Retry-After matrix
// beyond the happy path: malformed values must fall back to the
// ordinary exponential backoff (never zero, never a parse error), and
// over-cap values must be clamped so a confused peer cannot park the
// coordinator.
func TestClientRetryAfterEdgeCases(t *testing.T) {
	const (
		base = 40 * time.Millisecond
		cap  = 3 * time.Second
	)
	pastDate := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	cases := []struct {
		name       string
		code       int
		retryAfter string
		// wantExact, when nonzero, is the precise sleep the server's
		// header dictates; otherwise the sleep must land in the backoff
		// window [base/2, base).
		wantExact time.Duration
	}{
		{"valid delta-seconds", 429, "2", 2 * time.Second},
		{"503 delta-seconds", 503, "1", time.Second},
		{"over the cap", 429, "86400", cap},
		{"huge but numeric", 503, "999999999", cap},
		{"malformed word", 429, "soon", 0},
		{"negative seconds", 429, "-5", 0},
		{"fractional seconds", 429, "1.5", 0},
		{"past http-date", 429, pastDate, 0},
		{"empty header", 429, "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			attempts := 0
			rec := &sleepRecorder{}
			hdr := map[string]string{}
			if tc.retryAfter != "" {
				hdr["Retry-After"] = tc.retryAfter
			}
			c := &Client{
				Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
					attempts++
					if attempts == 1 {
						return resp(tc.code, "busy", hdr), nil
					}
					return resp(200, `{}`, nil), nil
				}),
				BaseDelay:     base,
				MaxRetryAfter: cap,
				Sleep:         rec.sleep,
				Seed:          1,
			}
			if _, err := c.Do(context.Background(), Request{Method: "GET", URL: "http://peer/x"}); err != nil {
				t.Fatal(err)
			}
			if attempts != 2 || len(rec.slept) != 1 {
				t.Fatalf("attempts=%d sleeps=%d, want 2/1", attempts, len(rec.slept))
			}
			got := rec.slept[0]
			if tc.wantExact != 0 {
				if got != tc.wantExact {
					t.Fatalf("slept %v, want exactly %v", got, tc.wantExact)
				}
				return
			}
			// Malformed values parse to zero and must yield the seeded
			// exponential backoff for attempt 1: d/2 + jitter(d/2) with
			// d = BaseDelay.
			if got < base/2 || got >= base {
				t.Fatalf("slept %v, want backoff in [%v, %v)", got, base/2, base)
			}
		})
	}
}

// TestClient429WithoutBody: an empty rejection body is still a clean
// retryable StatusError — no decode attempt, no panic, body "".
func TestClient429WithoutBody(t *testing.T) {
	// Exhausted attempts surface the bare StatusError.
	attempts := 0
	c := &Client{
		Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
			attempts++
			return resp(429, "", nil), nil
		}),
		Attempts: 2,
		Sleep:    (&sleepRecorder{}).sleep,
	}
	var out struct {
		V int `json:"v"`
	}
	_, err := c.Do(context.Background(), Request{Method: "GET", URL: "http://peer/x", Out: &out})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("err = %v, want StatusError 429", err)
	}
	if se.Body != "" || se.RetryAfter != 0 {
		t.Fatalf("bare 429 carried body %q retryAfter %v", se.Body, se.RetryAfter)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want the full retry budget", attempts)
	}

	// And recovery still works: bodyless 429 then success decodes.
	attempts = 0
	c.Transport = rtFunc(func(r *http.Request) (*http.Response, error) {
		attempts++
		if attempts == 1 {
			return resp(429, "", nil), nil
		}
		return resp(200, `{"v":9}`, nil), nil
	})
	if _, err := c.Do(context.Background(), Request{Method: "GET", URL: "http://peer/x", Out: &out}); err != nil {
		t.Fatal(err)
	}
	if out.V != 9 {
		t.Fatalf("decoded %+v after bodyless 429", out)
	}
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"axmemo/internal/obs"
)

// rtFunc adapts a function to http.RoundTripper.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// resp builds a canned response.
func resp(code int, body string, hdr map[string]string) *http.Response {
	r := &http.Response{
		StatusCode: code,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader(body)),
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	return r
}

// sleepRecorder captures backoff sleeps instead of waiting.
type sleepRecorder struct{ slept []time.Duration }

func (s *sleepRecorder) sleep(ctx context.Context, d time.Duration) error {
	s.slept = append(s.slept, d)
	return nil
}

func TestClientRetriesTransientStatuses(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout} {
		attempts := 0
		rec := &sleepRecorder{}
		retries := &obs.Counter{}
		c := &Client{
			Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
				attempts++
				if attempts < 3 {
					return resp(code, "busy", nil), nil
				}
				return resp(200, `{"v":7}`, nil), nil
			}),
			Sleep:   rec.sleep,
			Retries: retries,
		}
		var out struct {
			V int `json:"v"`
		}
		n, err := c.Do(context.Background(), Request{Method: "GET", URL: "http://peer/x", Out: &out})
		if err != nil {
			t.Fatalf("status %d: Do = %v, want success after retries", code, err)
		}
		if n != 3 {
			t.Fatalf("status %d: Do reported %d attempts, want 3", code, n)
		}
		if out.V != 7 {
			t.Fatalf("status %d: decoded %+v", code, out)
		}
		if attempts != 3 || retries.Value() != 2 || len(rec.slept) != 2 {
			t.Fatalf("status %d: attempts=%d retries=%d sleeps=%d, want 3/2/2",
				code, attempts, retries.Value(), len(rec.slept))
		}
	}
}

func TestClientRetriesTransportErrors(t *testing.T) {
	attempts := 0
	rec := &sleepRecorder{}
	c := &Client{
		Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
			attempts++
			return nil, errors.New("connection refused")
		}),
		Attempts: 3,
		Sleep:    rec.sleep,
	}
	n, err := c.Do(context.Background(), Request{Method: "GET", URL: "http://peer/x"})
	if err == nil || attempts != 3 || n != 3 {
		t.Fatalf("Do = %v after %d attempts (reported %d), want failure after 3", err, attempts, n)
	}
}

func TestClientDoesNotRetryPermanentStatuses(t *testing.T) {
	for _, code := range []int{http.StatusBadRequest, http.StatusConflict,
		http.StatusInternalServerError} {
		attempts := 0
		c := &Client{
			Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
				attempts++
				return resp(code, "nope", nil), nil
			}),
			Sleep: (&sleepRecorder{}).sleep,
		}
		n, err := c.Do(context.Background(), Request{Method: "GET", URL: "http://peer/x"})
		var se *StatusError
		if !errors.As(err, &se) || se.Code != code {
			t.Fatalf("status %d: err = %v, want StatusError", code, err)
		}
		if attempts != 1 || n != 1 {
			t.Fatalf("status %d retried: %d attempts (reported %d)", code, attempts, n)
		}
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	attempts := 0
	rec := &sleepRecorder{}
	c := &Client{
		Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
			attempts++
			if attempts == 1 {
				return resp(429, "busy", map[string]string{"Retry-After": "3"}), nil
			}
			return resp(200, `{}`, nil), nil
		}),
		Sleep: rec.sleep,
	}
	if _, err := c.Do(context.Background(), Request{Method: "GET", URL: "http://peer/x"}); err != nil {
		t.Fatal(err)
	}
	if len(rec.slept) != 1 || rec.slept[0] != 3*time.Second {
		t.Fatalf("slept %v, want exactly the server's 3s Retry-After", rec.slept)
	}

	// A confused peer cannot park the client: Retry-After is capped.
	attempts = 0
	rec.slept = nil
	c.MaxRetryAfter = time.Second
	c.Transport = rtFunc(func(r *http.Request) (*http.Response, error) {
		attempts++
		if attempts == 1 {
			return resp(429, "busy", map[string]string{"Retry-After": "600"}), nil
		}
		return resp(200, `{}`, nil), nil
	})
	if _, err := c.Do(context.Background(), Request{Method: "GET", URL: "http://peer/x"}); err != nil {
		t.Fatal(err)
	}
	if len(rec.slept) != 1 || rec.slept[0] != time.Second {
		t.Fatalf("slept %v, want the 1s cap", rec.slept)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("7"); d != 7*time.Second {
		t.Fatalf("delta-seconds: %v", d)
	}
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 80*time.Second || d > 90*time.Second {
		t.Fatalf("http-date: %v", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	for _, v := range []string{"", "soon", "-3", past} {
		if d := parseRetryAfter(v); d != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want 0", v, d)
		}
	}
}

func TestClientBackoffGrowsAndCaps(t *testing.T) {
	c := &Client{BaseDelay: 100 * time.Millisecond, MaxDelay: 400 * time.Millisecond}
	prev := time.Duration(0)
	for n := 1; n <= 5; n++ {
		d := c.backoff(n, 0)
		if d <= 0 || d > 400*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want (0, cap]", n, d)
		}
		if n <= 2 && d < prev/4 {
			t.Fatalf("backoff(%d) = %v collapsed below earlier %v", n, d, prev)
		}
		prev = d
	}
}

func TestClientChecksumValidationRetries(t *testing.T) {
	attempts := 0
	c := &Client{
		Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
			attempts++
			return resp(200, fmt.Sprintf(`{"v":%d}`, attempts), nil), nil
		}),
		Sleep: (&sleepRecorder{}).sleep,
	}
	var out struct {
		V int `json:"v"`
	}
	_, err := c.Do(context.Background(), Request{
		Method: "GET", URL: "http://peer/x", Out: &out,
		Check: func() error {
			if out.V < 2 {
				return Retryable(errors.New("checksum mismatch"))
			}
			return nil
		},
	})
	if err != nil || out.V != 2 || attempts != 2 {
		t.Fatalf("err=%v out=%+v attempts=%d, want validated second attempt", err, out, attempts)
	}

	// A non-Retryable validation failure is final.
	attempts = 0
	_, err = c.Do(context.Background(), Request{
		Method: "GET", URL: "http://peer/x", Out: &out,
		Check: func() error { return errors.New("semantically wrong") },
	})
	if err == nil || attempts != 1 {
		t.Fatalf("err=%v attempts=%d, want one final failure", err, attempts)
	}
}

func TestClientCarriesIdentityHeaders(t *testing.T) {
	var keys, attempts []string
	c := &Client{
		Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
			keys = append(keys, r.Header.Get(HeaderKey))
			attempts = append(attempts, r.Header.Get(HeaderAttempt))
			if len(attempts) < 2 {
				return resp(503, "warming up", nil), nil
			}
			return resp(200, `{}`, nil), nil
		}),
		Sleep: (&sleepRecorder{}).sleep,
	}
	if _, err := c.Do(context.Background(), Request{
		Method: "GET", URL: "http://peer/x", Key: "abc123", AttemptBase: 2000,
	}); err != nil {
		t.Fatal(err)
	}
	if keys[0] != "abc123" || attempts[0] != "2000" || attempts[1] != "2001" {
		t.Fatalf("identity headers: keys=%v attempts=%v", keys, attempts)
	}
}

func TestClientRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Client{
		Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
			return nil, r.Context().Err()
		}),
	}
	if _, err := c.Do(ctx, Request{Method: "GET", URL: "http://peer/x"}); err == nil {
		t.Fatal("Do on canceled context succeeded")
	}
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"axmemo/internal/obs"
)

// Request headers carrying the request's identity across attempts.
// The chaos transport keys its fault decisions on them, so whether a
// given (key, attempt) is dropped is a pure function of the seed —
// independent of goroutine scheduling — and operators can correlate
// peer-side logs with coordinator retries.
const (
	HeaderKey     = "X-Axmemo-Key"
	HeaderAttempt = "X-Axmemo-Attempt"
)

// StatusError reports a non-2xx peer response.
type StatusError struct {
	Code       int
	Body       string
	RetryAfter time.Duration // parsed Retry-After on 429/503, 0 if absent
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: peer status %d: %s", e.Code, e.Body)
}

// errRetryable wraps errors that should be retried (transient
// transport/decode failures flagged by a response validator).
type errRetryable struct{ err error }

func (e *errRetryable) Error() string { return e.err.Error() }
func (e *errRetryable) Unwrap() error { return e.err }

// Retryable marks err as transient, asking Client.Do for another
// attempt (a checksum mismatch from a corrupted payload, for example).
func Retryable(err error) error { return &errRetryable{err} }

// Request is one idempotent cluster operation.  Every cluster request
// IS idempotent — cells are pure functions of their content address —
// which is what makes retries safe.
type Request struct {
	Method string
	URL    string
	// Body, if non-nil, is JSON-encoded into the request.
	Body any
	// Out, if non-nil, receives the JSON-decoded 2xx response body.
	Out any
	// Check validates the decoded Out; returning Retryable(err) asks
	// for another attempt (e.g. a payload checksum mismatch).
	Check func() error
	// Key is the request's content identity (store key hex), carried in
	// HeaderKey.
	Key string
	// AttemptBase offsets the attempt numbers in HeaderAttempt, letting
	// periodic callers (membership probe rounds) give every round a
	// distinct identity.
	AttemptBase int
}

// Backoff between attempts: attempt n waits baseDelay·2ⁿ⁻¹, capped at
// maxDelay, with half-delay jitter; a server-sent Retry-After replaces
// it, honored up to maxRetryAfter so a confused peer cannot park the
// coordinator.
const (
	baseDelay     = 50 * time.Millisecond
	maxDelay      = 2 * time.Second
	maxRetryAfter = 5 * time.Second
)

// Client is the cluster's resilient HTTP/JSON client.  The zero value
// is usable; all fields are optional tuning.  Safe for concurrent use.
type Client struct {
	// Transport performs the HTTP round trips (http.DefaultTransport if
	// nil).  Tests and the chaos harness inject theirs here.
	Transport http.RoundTripper
	// Attempts bounds tries per request, first included (0 = 4).
	Attempts int
	// AttemptTimeout bounds each individual attempt (0 = 2m); the
	// caller's context bounds the whole request.
	AttemptTimeout time.Duration
	// Seed makes the backoff jitter deterministic for tests.
	Seed int64
	// Sleep waits between attempts (nil = real, context-aware sleep).
	// Deterministic tests inject a recorder.
	Sleep func(ctx context.Context, d time.Duration) error

	// Retries counts attempts beyond the first (nil-safe); it is
	// deterministic under a seeded chaos plan.
	Retries *obs.Counter

	rngOnce sync.Once
	rngMu   sync.Mutex
	rng     *rand.Rand
}

func (c *Client) attempts() int {
	if c.Attempts <= 0 {
		return 4
	}
	return c.Attempts
}

func (c *Client) attemptTimeout() time.Duration {
	if c.AttemptTimeout <= 0 {
		return 2 * time.Minute
	}
	return c.AttemptTimeout
}

func (c *Client) transport() http.RoundTripper {
	if c.Transport == nil {
		return http.DefaultTransport
	}
	return c.Transport
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitter returns a uniform duration in [0, d).
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.rngOnce.Do(func() { c.rng = rand.New(rand.NewSource(c.Seed)) })
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(d)))
}

// backoff computes the wait before attempt n (n ≥ 1).  A server-sent
// Retry-After wins (capped), because the server knows its own load
// better than our exponential guess does.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return min(retryAfter, maxRetryAfter)
	}
	d := baseDelay << uint(n-1)
	if d <= 0 || d > maxDelay {
		d = maxDelay
	}
	return d/2 + c.jitter(d/2)
}

// retryable reports whether err deserves another attempt: transport
// errors, explicitly flagged validation failures, and the transient
// status codes.  A 500 is NOT retryable — our peers answer 500 only
// for deterministic simulation errors, which a retry would just repeat.
func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	var re *errRetryable
	if errors.As(err, &re) {
		return true
	}
	// Anything else (net errors, timeouts, chaos drops) is transient.
	return !errors.Is(err, context.Canceled)
}

// Do runs the request with retries, backoff and Retry-After honoring.
// It returns nil after the first attempt whose response decodes and
// validates; otherwise the last error.  attempts counts the attempts
// made, the last one included: more than one means an earlier attempt
// failed, and a failed attempt may still have reached the peer and
// done its work (a response lost or corrupted on the way back).
func (c *Client) Do(ctx context.Context, req Request) (attempts int, err error) {
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			c.Retries.Inc()
			if err := c.sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
				return attempt, err
			}
			retryAfter = 0
		}
		body, err := c.fetch(ctx, req, attempt)
		if err == nil {
			if req.Out != nil {
				if derr := json.Unmarshal(body, req.Out); derr != nil {
					err = Retryable(fmt.Errorf("cluster: decoding response: %w", derr))
				}
			}
			if err == nil && req.Check != nil {
				if cerr := req.Check(); cerr != nil {
					// Validation verdicts are final unless the validator
					// explicitly flagged them Retryable — the transient-by-
					// default rule below is for transport errors only.
					var re *errRetryable
					if !errors.As(cerr, &re) {
						return attempt + 1, cerr
					}
					err = cerr
				}
			}
			if err == nil {
				return attempt + 1, nil
			}
		}
		lastErr = err
		var se *StatusError
		if errors.As(err, &se) {
			retryAfter = se.RetryAfter
		}
		if !retryable(err) || ctx.Err() != nil {
			return attempt + 1, err
		}
	}
	return c.attempts(), lastErr
}

// fetch performs one HTTP attempt under its own timeout and returns
// the raw 2xx body.
func (c *Client) fetch(ctx context.Context, req Request, attempt int) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout())
	defer cancel()
	var body io.Reader
	if req.Body != nil {
		data, err := json.Marshal(req.Body)
		if err != nil {
			return nil, fmt.Errorf("cluster: encoding request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	hr, err := http.NewRequestWithContext(actx, req.Method, req.URL, body)
	if err != nil {
		return nil, err
	}
	if req.Body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if req.Key != "" {
		hr.Header.Set(HeaderKey, req.Key)
	}
	hr.Header.Set(HeaderAttempt, strconv.Itoa(req.AttemptBase+attempt))
	resp, err := c.transport().RoundTrip(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, Retryable(fmt.Errorf("cluster: reading response: %w", err))
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, &StatusError{
			Code:       resp.StatusCode,
			Body:       truncate(string(data), 200),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	return data, nil
}

// parseRetryAfter handles both Retry-After forms: delta-seconds and
// HTTP-date.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

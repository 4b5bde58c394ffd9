package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"axmemo/internal/obs"
)

// The chaos transport is test machinery: the seeded e2e tests (package
// cluster_test) splice it between a coordinator and its shards.

// ChaosPlan configures the deterministic fault-injection transport.
// The zero value injects nothing.  Rates are probabilities in [0, 1],
// evaluated per request identity — see Chaos for the determinism
// contract.
type ChaosPlan struct {
	// Seed fixes every injection decision.  Two chaotic clusters built
	// from the same plan and traffic observe identical faults.
	Seed int64
	// DropRate is the probability a request never reaches the peer
	// (surfaced to the client as a transport error).
	DropRate float64
	// SlowRate is the probability a response is delayed by SlowDelay
	// before delivery — long enough delays trip per-attempt timeouts.
	SlowRate  float64
	SlowDelay time.Duration
	// CorruptRate is the probability a response body is garbled
	// in flight; the client's checksum/decode validation catches it and
	// retries.
	CorruptRate float64
}

// Chaos is an http.RoundTripper that injects the plan's faults between
// a cluster client and its peers, in the spirit of internal/fault:
// seeded and reproducible.  Each decision hashes (seed, peer host,
// request key, attempt, fault kind) — not a shared RNG stream — so the
// verdict for a given request is a pure function of the plan no matter
// how goroutines interleave, and retry counts are deterministic for a
// fixed seed.
//
// Kill and Revive model whole-peer failures on top of the rate-based
// faults; KillAfter arms a request-count fuse for mid-sweep crashes.
// All methods are safe for concurrent use.
type Chaos struct {
	plan ChaosPlan
	next http.RoundTripper

	mu    sync.Mutex
	dead  map[string]bool
	fuse  map[string]int // remaining requests before the peer dies
	count map[string]int // requests seen per peer

	injected *obs.CounterVec // kind
}

// Fault-decision salts, one per kind, so the drop/slow/corrupt
// verdicts for one request are independent draws.
const (
	saltDrop    = "drop"
	saltSlow    = "slow"
	saltCorrupt = "corrupt"
)

// NewChaos wraps next (http.DefaultTransport if nil) with the plan.
func NewChaos(plan ChaosPlan, next http.RoundTripper) *Chaos {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Chaos{
		plan:  plan,
		next:  next,
		dead:  make(map[string]bool),
		fuse:  make(map[string]int),
		count: make(map[string]int),
	}
}

// Attach registers the injected-fault counter family (deterministic
// for a fixed seed and traffic set).
func (c *Chaos) Attach(sink *obs.Sink) {
	if reg := sink.Reg(); reg != nil {
		c.injected = reg.NewCounterVec("chaos_injected_total",
			obs.Opts{Help: "chaos faults delivered, by kind"}, "kind")
	}
}

// Kill makes every request to the peer host fail until Revive — the
// transport-level view of a crashed daemon.
func (c *Chaos) Kill(host string) {
	c.mu.Lock()
	c.dead[host] = true
	c.mu.Unlock()
}

// Revive undoes Kill (the fuse, if burnt, stays burnt until re-armed).
func (c *Chaos) Revive(host string) {
	c.mu.Lock()
	delete(c.dead, host)
	c.mu.Unlock()
}

// KillAfter kills the peer host once n more requests have been served,
// modeling a crash mid-sweep.
func (c *Chaos) KillAfter(host string, n int) {
	c.mu.Lock()
	c.fuse[host] = n
	c.mu.Unlock()
}

// decide evaluates one fault kind for one request identity.
func (c *Chaos) decide(rate float64, host, key, attempt, salt string) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := sha256.New()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(c.plan.Seed))
	h.Write(seed[:])
	for _, s := range []string{host, key, attempt, salt} {
		var frame [8]byte
		binary.LittleEndian.PutUint64(frame[:], uint64(len(s)))
		h.Write(frame[:])
		h.Write([]byte(s))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	u := binary.BigEndian.Uint64(sum[:8])
	return float64(u)/float64(1<<63)/2 < rate
}

// RoundTrip injects the planned faults around the real round trip.
func (c *Chaos) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	key := req.Header.Get(HeaderKey)
	if key == "" {
		key = req.URL.Path
	}
	attempt := req.Header.Get(HeaderAttempt)

	c.mu.Lock()
	if n, ok := c.fuse[host]; ok {
		if n <= 0 {
			c.dead[host] = true
			delete(c.fuse, host)
		} else {
			c.fuse[host] = n - 1
		}
	}
	dead := c.dead[host]
	c.count[host]++
	c.mu.Unlock()

	if dead {
		c.injected.With("kill").Inc()
		return nil, fmt.Errorf("chaos: peer %s is killed", host)
	}
	if c.decide(c.plan.DropRate, host, key, attempt, saltDrop) {
		c.injected.With("drop").Inc()
		return nil, fmt.Errorf("chaos: dropped %s %s (key %.16s attempt %s)", req.Method, req.URL.Path, key, attempt)
	}
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if c.decide(c.plan.SlowRate, host, key, attempt, saltSlow) && c.plan.SlowDelay > 0 {
		c.injected.With("slow").Inc()
		t := time.NewTimer(c.plan.SlowDelay)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			resp.Body.Close()
			return nil, req.Context().Err()
		}
	}
	if c.decide(c.plan.CorruptRate, host, key, attempt, saltCorrupt) {
		c.injected.With("corrupt").Inc()
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(corrupt(body)))
		resp.ContentLength = int64(len(body))
	}
	return resp, nil
}

// Requests returns how many requests the transport has seen for host
// (test introspection).
func (c *Chaos) Requests(host string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count[host]
}

// corrupt deterministically garbles a payload: a handful of bytes
// spread across the body are XORed, which breaks either the JSON
// framing or the embedded result checksum — both detected client-side.
func corrupt(body []byte) []byte {
	if len(body) == 0 {
		return []byte("chaos")
	}
	out := bytes.Clone(body)
	step := len(out)/8 + 1
	for i := len(out) / 2; i < len(out); i += step {
		out[i] ^= 0x5A
	}
	return out
}

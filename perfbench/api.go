package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"axmemo/internal/harness"
	"axmemo/internal/workloads"
)

// simReq is one POST /v1/simulate body.
type simReq struct {
	Benchmark   string  `json:"benchmark"`
	Mode        string  `json:"mode,omitempty"`
	L1KB        int     `json:"l1_kb,omitempty"`
	L2KB        int     `json:"l2_kb,omitempty"`
	TruncOff    bool    `json:"trunc_off,omitempty"`
	GuardBudget float64 `json:"guard_budget,omitempty"`
	MaxCycles   uint64  `json:"max_cycles,omitempty"`
}

// config resolves the request the way the daemon documents it: hw mode
// defaults to L1 8KB + L2 512KB, trunc_off zeroes every region's
// truncation and appends " no-approx" to the name, baseline ignores
// the knobs.  Scale is 1, as for the daemons this benchmark builds.
func (q simReq) config() (harness.Config, error) {
	w, err := workloads.ByName(q.Benchmark)
	if err != nil {
		return harness.Config{}, err
	}
	var cfg harness.Config
	switch q.Mode {
	case "baseline":
		return harness.Baseline(), nil
	case "hw", "":
		l1, l2 := q.L1KB, q.L2KB
		if l1 <= 0 && l2 <= 0 {
			l1, l2 = 8, 512
		}
		cfg = harness.HW(fmt.Sprintf("L1 (%dKB)", l1), l1, 0)
		if l2 > 0 {
			cfg = harness.HW(fmt.Sprintf("L1 (%dKB)+L2 (%dKB)", l1, l2), l1, l2)
		}
	case "soft":
		cfg = harness.Config{Name: "Software LUT", Mode: harness.ModeSoftLUT, Scale: 1}
	case "atm":
		cfg = harness.Config{Name: "ATM", Mode: harness.ModeATM, Scale: 1}
	default:
		return harness.Config{}, fmt.Errorf("unknown mode %q", q.Mode)
	}
	if q.TruncOff {
		cfg.Trunc = make([]uint8, len(w.TruncBits))
		cfg.Name += " no-approx"
	}
	cfg.GuardBudget = q.GuardBudget
	cfg.MaxCycles = q.MaxCycles
	return cfg, nil
}

// cell is a request prepared for sending and checking.
type cell struct {
	req  simReq
	body []byte
	key  string // harness.CellStoreKey of the resolved config
}

func newCell(q simReq) (cell, error) {
	cfg, err := q.config()
	if err != nil {
		return cell{}, err
	}
	body, err := json.Marshal(q)
	if err != nil {
		return cell{}, err
	}
	return cell{req: q, body: body, key: harness.CellStoreKey(q.Benchmark, cfg).String()}, nil
}

// reference is the direct harness.Run of a cell's config, computed
// outside any timed window: the canonical JSON of its Result, or the
// error the run ended in.
type reference struct {
	result []byte
	err    error
}

func runReference(q simReq) reference {
	cfg, err := q.config()
	if err != nil {
		return reference{err: err}
	}
	w, err := workloads.ByName(q.Benchmark)
	if err != nil {
		return reference{err: err}
	}
	res, err := harness.Run(w, cfg)
	if err != nil {
		return reference{err: err}
	}
	b, err := json.Marshal(res)
	return reference{result: b, err: err}
}

// simResp is the part of a /v1/simulate answer the checks read.
type simResp struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// checkAnswer verifies one served answer: a 2xx must carry the cell's
// store key and, when ref is given, a result equal to the reference
// run's; when the reference run failed, the right answer is an error.
// wantFresh additionally demands cached:false.  It returns the decoded
// answer.
func checkAnswer(c cell, status int, body []byte, ref *reference, wantFresh bool) (simResp, error) {
	var got simResp
	if ref != nil && ref.err != nil {
		if status/100 == 2 {
			return got, fmt.Errorf("%s: served %d, but a direct run fails: %v", c.body, status, ref.err)
		}
		return got, nil
	}
	if status/100 != 2 {
		return got, fmt.Errorf("%s: status %d: %.200s", c.body, status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return got, fmt.Errorf("%s: undecodable answer: %v", c.body, err)
	}
	if got.Key != c.key {
		return got, fmt.Errorf("%s: key %.16s, want %.16s", c.body, got.Key, c.key)
	}
	if wantFresh && got.Cached {
		return got, fmt.Errorf("%s: answered from cache, want a fresh cell", c.body)
	}
	if ref == nil {
		return got, nil
	}
	return got, sameResult(c, got.Result, ref.result)
}

// sameResult compares a served Result with a reference run's canonical
// encoding.
func sameResult(c cell, served json.RawMessage, want []byte) error {
	var res harness.Result
	if err := json.Unmarshal(served, &res); err != nil {
		return fmt.Errorf("%s: undecodable result: %v", c.body, err)
	}
	canon, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	if !bytes.Equal(canon, want) {
		return fmt.Errorf("%s: result differs from a direct harness.Run of its config", c.body)
	}
	return nil
}

// loadClient is the benchmark's HTTP client: never more than two
// connections to a host, matching the two CPUs of the reference box.
func loadClient() *http.Client {
	return &http.Client{
		Timeout: failLatency,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// post sends one simulate request and reads the whole answer into buf.
func post(c *http.Client, url string, body []byte, req uint64, buf *bytes.Buffer) (status int, err error) {
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req != 0 {
		hr.Header.Set(headerReq, fmt.Sprint(req))
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// timeIt runs f and returns its wall time.
func timeIt(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

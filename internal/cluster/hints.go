package cluster

// Hinted handoff: when a replica write cannot be delivered because its
// peer is down, the coordinator parks the cell as a *hint* — a bounded,
// disk-backed queue per peer — and redelivers the whole queue when
// membership re-admits the peer as alive.  Hints are an optimization,
// not a durability guarantee: every cell is a pure function of its
// content address, so a dropped hint costs at most one recompute (or
// one anti-entropy repair pull) later.  That is why the queue is
// bounded — a peer that stays down for a week must not grow an
// unbounded backlog — and why every failure path degrades to "drop and
// count" instead of erroring.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Hint is one undelivered replica write, queued for a down peer.
type Hint struct {
	Key    string          `json:"key"`
	SHA256 string          `json:"result_sha256"`
	Result json.RawMessage `json:"result"`
}

// HintQueue holds per-peer hint queues.  With a directory, each peer's
// queue is an append-only JSONL file that survives a coordinator
// restart; without one the queues live in memory only.  All methods
// are safe for concurrent use.
type HintQueue struct {
	dir string
	max int

	mu    sync.Mutex
	queue map[string][]Hint // peerID -> pending hints, oldest first
	drops map[string]int
}

// DefaultMaxHints bounds each peer's queue when NewHintQueue is given
// a non-positive limit.
const DefaultMaxHints = 1024

// NewHintQueue builds a queue rooted at dir ("" = memory only),
// holding at most maxPerPeer hints per peer (<= 0 = DefaultMaxHints).
// Existing hint files under dir are reloaded, so hints queued by a
// previous coordinator process are redelivered by this one.
func NewHintQueue(dir string, maxPerPeer int) (*HintQueue, error) {
	if maxPerPeer <= 0 {
		maxPerPeer = DefaultMaxHints
	}
	q := &HintQueue{dir: dir, max: maxPerPeer,
		queue: make(map[string][]Hint), drops: make(map[string]int)}
	if dir == "" {
		return q, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: hint dir: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: hint dir: %w", err)
	}
	for _, d := range names {
		peer, ok := strings.CutSuffix(d.Name(), ".jsonl")
		if !ok {
			continue
		}
		q.queue[peer] = q.loadFile(filepath.Join(dir, d.Name()))
	}
	return q, nil
}

// loadFile replays one peer's hint file; malformed lines (a torn tail
// from a crash mid-append) are dropped — a lost hint is a recompute,
// never an error.
func (q *HintQueue) loadFile(path string) []Hint {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var hints []Hint
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var h Hint
		if json.Unmarshal(sc.Bytes(), &h) != nil {
			break
		}
		hints = append(hints, h)
	}
	if len(hints) > q.max {
		hints = hints[len(hints)-q.max:]
	}
	return hints
}

func (q *HintQueue) filePath(peer string) string {
	return filepath.Join(q.dir, peer+".jsonl")
}

// Add queues one hint for peer.  A full queue drops the OLDEST hint to
// make room — newer results are likelier to still be wanted — and
// reports the drop in Stats.  Disk trouble degrades the queue for that
// peer to memory-only (the hint still redelivers within this process).
func (q *HintQueue) Add(peer string, h Hint) {
	q.mu.Lock()
	defer q.mu.Unlock()
	dropped := 0
	hints := append(q.queue[peer], h)
	if len(hints) > q.max {
		dropped = len(hints) - q.max
		hints = hints[dropped:]
	}
	q.queue[peer] = hints
	q.drops[peer] += dropped
	if q.dir == "" {
		return
	}
	if dropped > 0 {
		// The file no longer matches the bounded queue: rewrite it.
		q.persistLocked(peer)
		return
	}
	line, err := json.Marshal(h)
	if err != nil {
		return
	}
	f, err := os.OpenFile(q.filePath(peer), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	f.Write(append(line, '\n')) //nolint:errcheck // memory copy still redelivers
	f.Close()
}

// persistLocked rewrites peer's hint file to match its in-memory queue.
func (q *HintQueue) persistLocked(peer string) {
	if q.dir == "" {
		return
	}
	hints := q.queue[peer]
	if len(hints) == 0 {
		os.Remove(q.filePath(peer))
		return
	}
	var b strings.Builder
	for _, h := range hints {
		line, err := json.Marshal(h)
		if err != nil {
			continue
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	tmp := q.filePath(peer) + ".tmp"
	if os.WriteFile(tmp, []byte(b.String()), 0o644) == nil {
		os.Rename(tmp, q.filePath(peer)) //nolint:errcheck // best-effort persistence
	}
}

// Drain removes and returns every queued hint for peer (oldest first).
// The caller delivers them; anything it fails to deliver it may Add
// back.
func (q *HintQueue) Drain(peer string) []Hint {
	q.mu.Lock()
	defer q.mu.Unlock()
	hints := q.queue[peer]
	delete(q.queue, peer)
	if q.dir != "" {
		os.Remove(q.filePath(peer))
	}
	return hints
}

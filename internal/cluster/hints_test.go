package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"axmemo/internal/store"
)

// Pending reports how many hints are queued for peer.
func (q *HintQueue) Pending(peer string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue[peer])
}

// Dropped reports how many hints for peer were dropped by the bound.
func (q *HintQueue) Dropped(peer string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.drops[peer]
}

func mkHint(i int) Hint {
	return Hint{
		Key:    fmt.Sprintf("key-%03d", i),
		SHA256: fmt.Sprintf("sha-%03d", i),
		Result: json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)),
	}
}

func TestHintQueueBound(t *testing.T) {
	q, err := NewHintQueue("", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q.Add("p", mkHint(i))
	}
	if got := q.Pending("p"); got != 3 {
		t.Fatalf("Pending = %d, want 3 (bound)", got)
	}
	if got := q.Dropped("p"); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	// Oldest dropped: the survivors are the newest three, oldest first.
	hints := q.Drain("p")
	if len(hints) != 3 || hints[0].Key != "key-002" || hints[2].Key != "key-004" {
		t.Fatalf("drained %+v, want keys 002..004", hints)
	}
	if q.Pending("p") != 0 {
		t.Fatal("Drain left hints behind")
	}
	// Peers are independent.
	q.Add("other", mkHint(9))
	if q.Pending("other") != 1 || q.Dropped("other") != 0 {
		t.Fatal("peer queues are not independent")
	}
}

func TestHintQueueDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	q, err := NewHintQueue(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		q.Add("shard-1", mkHint(i))
	}
	q.Add("shard-2", mkHint(7))

	// A fresh queue over the same dir (a coordinator restart) reloads
	// everything, per peer, in order.
	q2, err := NewHintQueue(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Pending("shard-1") != 4 || q2.Pending("shard-2") != 1 {
		t.Fatalf("reload: pending = %d/%d, want 4/1",
			q2.Pending("shard-1"), q2.Pending("shard-2"))
	}
	hints := q2.Drain("shard-1")
	for i, h := range hints {
		want := mkHint(i)
		if h.Key != want.Key || h.SHA256 != want.SHA256 || string(h.Result) != string(want.Result) {
			t.Fatalf("reloaded hint %d = %+v, want %+v", i, h, want)
		}
	}
	// Drain removed the file: a third queue sees nothing for shard-1.
	if _, err := os.Stat(filepath.Join(dir, "shard-1.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("drained hint file still exists (err %v)", err)
	}
	q3, err := NewHintQueue(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if q3.Pending("shard-1") != 0 || q3.Pending("shard-2") != 1 {
		t.Fatal("drain did not persist")
	}
}

func TestHintQueueTornTail(t *testing.T) {
	dir := t.TempDir()
	q, err := NewHintQueue(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	q.Add("p", mkHint(0))
	q.Add("p", mkHint(1))
	// Simulate a crash mid-append: a truncated JSON line at the tail.
	f, err := os.OpenFile(filepath.Join(dir, "p.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn`) //nolint:errcheck
	f.Close()

	q2, err := NewHintQueue(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Pending("p"); got != 2 {
		t.Fatalf("torn tail: pending = %d, want 2 intact hints", got)
	}
}

func TestHintQueueBoundRewritesFile(t *testing.T) {
	dir := t.TempDir()
	q, err := NewHintQueue(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q.Add("p", mkHint(i))
	}
	// The file must match the bounded queue, not the append history.
	q2, err := NewHintQueue(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	hints := q2.Drain("p")
	if len(hints) != 2 || hints[0].Key != "key-003" || hints[1].Key != "key-004" {
		t.Fatalf("reloaded bounded queue = %+v, want keys 003, 004", hints)
	}
}

// TestOwnersReplicaSets pins the replica-set generalization: the
// primary is Owner, sets are deterministic, distinct, clamped, and —
// what replication relies on — every peer appears in a fair share of
// replica sets.
func TestOwnersReplicaSets(t *testing.T) {
	peers := []Peer{{ID: "shard-0"}, {ID: "shard-1"}, {ID: "shard-2"}, {ID: "shard-3"}}
	inSet := make([]int, len(peers))
	for i := 0; i < 300; i++ {
		k := store.KeyOf("cell", fmt.Sprint(i))
		set := Owners(peers, k, 2)
		if len(set) != 2 {
			t.Fatalf("Owners r=2 returned %d peers", len(set))
		}
		if set[0] == set[1] {
			t.Fatalf("replica set %v repeats a peer", set)
		}
		if set[0] != Owners(peers, k, 1)[0] {
			t.Fatal("Owners r=2 does not start with the primary")
		}
		// The set is a prefix-stable ranking: r=3 extends r=2.
		set3 := Owners(peers, k, 3)
		if set3[0] != set[0] || set3[1] != set[1] {
			t.Fatalf("Owners r=3 %v does not extend r=2 %v", set3, set)
		}
		for _, idx := range set {
			inSet[idx]++
		}
	}
	for i, n := range inSet {
		if n < 75 { // fair share of 600 slots across 4 peers is 150
			t.Fatalf("peer %d appears in only %d/300 replica sets: %v", i, n, inSet)
		}
	}
	// Clamping: r too large returns every peer exactly once; r < 1 acts
	// as 1; the empty set stays empty.
	k := store.KeyOf("cell", "clamp")
	if got := Owners(peers, k, 99); len(got) != len(peers) {
		t.Fatalf("Owners r=99 = %v, want all %d peers", got, len(peers))
	}
	if got := Owners(peers, k, 0); len(got) != 1 {
		t.Fatalf("Owners r=0 = %v, want the primary only", got)
	}
	if got := Owners(nil, k, 2); got != nil {
		t.Fatalf("Owners over no peers = %v, want nil", got)
	}
}

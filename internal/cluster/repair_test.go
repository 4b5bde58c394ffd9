package cluster_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"axmemo/internal/cluster"
	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/server"
	"axmemo/internal/store"
)

// storeShard is a peer daemon with a disk-backed store attached, so
// the replica store protocol (manifest, cell GET/PUT) has somewhere to
// read from and write to.
type storeShard struct {
	suite *harness.Suite
	st    *store.Store
	ts    *httptest.Server
}

func newStoreShard(t *testing.T) *storeShard {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := harness.NewSuite(1)
	s.Parallel = 2
	s.Obs = obs.NewSink()
	s.Store = st
	srv := server.New(server.Config{Suite: s})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &storeShard{suite: s, st: st, ts: ts}
}

func (s *storeShard) addr() string { return strings.TrimPrefix(s.ts.URL, "http://") }

func (s *storeShard) peer(id string) cluster.Peer {
	return cluster.Peer{ID: id, Addr: s.addr()}
}

// seedCells puts n synthetic result blobs into a shard's store and
// returns their keys.
func seedCells(t *testing.T, st *store.Store, n int) []store.Key {
	t.Helper()
	keys := make([]store.Key, n)
	for i := 0; i < n; i++ {
		k := store.KeyOf("repair-cell", fmt.Sprint(i))
		if err := st.Put(k, json.RawMessage(fmt.Sprintf(`{"cell":%d}`, i))); err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

// TestRepairPullsMissingCells: an empty rejoining shard diffs a
// populated peer's manifest and pulls exactly the cells whose replica
// set includes it — here R = cluster size, so all of them — and a
// second pass finds nothing left to pull.
func TestRepairPullsMissingCells(t *testing.T) {
	donor := newStoreShard(t)
	keys := seedCells(t, donor.st, 12)

	rejoiner, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.RepairConfig{
		Self:     "shard-b",
		Peers:    []cluster.Peer{donor.peer("shard-a")},
		Replicas: 2, // top-2 of {shard-a, shard-b} is both: every key is ours
		Store:    rejoiner,
		Logf:     t.Logf,
	}
	stats, err := cluster.Repair(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeersDiffed != 1 || stats.PeersSkipped != 0 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want 1 peer diffed cleanly", stats)
	}
	if stats.Pulled != len(keys) {
		t.Fatalf("pulled %d cells, want %d", stats.Pulled, len(keys))
	}
	for _, k := range keys {
		var raw json.RawMessage
		if !rejoiner.Get(k, &raw) {
			t.Fatalf("cell %.16s missing after repair", k.String())
		}
	}
	// Byte-identity: the pulled blobs are the donor's bytes.
	var donorRaw, mineRaw json.RawMessage
	donor.st.Get(keys[0], &donorRaw)
	rejoiner.Get(keys[0], &mineRaw)
	if string(donorRaw) != string(mineRaw) {
		t.Fatalf("pulled cell differs: %s vs %s", donorRaw, mineRaw)
	}

	// Idempotence: an immediately repeated pass pulls nothing.
	again, err := cluster.Repair(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Pulled != 0 {
		t.Fatalf("second pass pulled %d cells, want 0", again.Pulled)
	}
}

// TestRepairRespectsPlacement: with R=1 the rejoiner pulls only the
// keys it is primary for — a replica does not hoard the whole
// cluster's cells.
func TestRepairRespectsPlacement(t *testing.T) {
	donor := newStoreShard(t)
	keys := seedCells(t, donor.st, 40)

	ring := []cluster.Peer{{ID: "shard-a"}, {ID: "shard-b"}}
	mine := 0
	for _, k := range keys {
		if cluster.Owners(ring, k, 1)[0] == 1 { // index 1 = shard-b, appended self
			mine++
		}
	}
	if mine == 0 || mine == len(keys) {
		t.Fatalf("degenerate placement split: %d/%d", mine, len(keys))
	}

	rejoiner, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cluster.Repair(context.Background(), cluster.RepairConfig{
		Self:     "shard-b",
		Peers:    []cluster.Peer{donor.peer("shard-a")},
		Replicas: 1,
		Store:    rejoiner,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pulled != mine {
		t.Fatalf("pulled %d cells, want the %d shard-b primaries", stats.Pulled, mine)
	}
}

// TestRepairSkipsSkewAndDead: a version-skewed peer and an unreachable
// peer are both skipped — the pass still succeeds with whatever the
// compatible peers offer.
func TestRepairSkipsSkewAndDead(t *testing.T) {
	donor := newStoreShard(t)
	seedCells(t, donor.st, 5)

	// A peer reporting a manifest from different physics.
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(cluster.Manifest{ //nolint:errcheck
			ResultsVersion: harness.ResultsVersion + 7,
			Entries:        []store.ManifestEntry{{Key: strings.Repeat("ab", 32), Size: 2}},
		})
	}))
	t.Cleanup(skewed.Close)
	// A peer that is listed but gone.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()

	rejoiner, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cluster.Repair(context.Background(), cluster.RepairConfig{
		Self: "shard-b",
		Peers: []cluster.Peer{
			donor.peer("shard-a"),
			{ID: "shard-skew", Addr: strings.TrimPrefix(skewed.URL, "http://")},
			{ID: "shard-dead", Addr: deadAddr},
		},
		Replicas: 4, // everything is ours; only reachability/skew filter
		Store:    rejoiner,
		Client:   &cluster.Client{Attempts: 1, Sleep: noSleep},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeersDiffed != 1 || stats.PeersSkipped != 2 {
		t.Fatalf("stats = %+v, want 1 diffed / 2 skipped", stats)
	}
	if stats.Pulled != 5 {
		t.Fatalf("pulled %d, want the donor's 5 cells", stats.Pulled)
	}
}

// TestStoreProtocolValidation: the replica-write endpoint rejects
// version skew, checksum mismatches, and path/body key disagreements
// instead of storing them.
func TestStoreProtocolValidation(t *testing.T) {
	sh := newStoreShard(t)
	key := store.KeyOf("cell", "validation").String()
	good := cluster.ReplicaWrite{
		Version: harness.ResultsVersion,
		Key:     key,
		SHA256:  shaOf(`{"v":1}`),
		Result:  json.RawMessage(`{"v":1}`),
	}
	put := func(k string, w cluster.ReplicaWrite) int {
		t.Helper()
		body, _ := json.Marshal(w)
		req, err := http.NewRequest(http.MethodPut, sh.ts.URL+"/v1/store/cells/"+k, strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := put(key, good); got != http.StatusNoContent {
		t.Fatalf("valid write: %d, want 204", got)
	}
	skew := good
	skew.Version = harness.ResultsVersion + 1
	if got := put(key, skew); got != http.StatusConflict {
		t.Fatalf("version skew: %d, want 409", got)
	}
	bad := good
	bad.SHA256 = strings.Repeat("00", 32)
	if got := put(key, bad); got != http.StatusBadRequest {
		t.Fatalf("checksum mismatch: %d, want 400", got)
	}
	otherKey := store.KeyOf("cell", "other").String()
	if got := put(otherKey, good); got != http.StatusBadRequest {
		t.Fatalf("path/body key mismatch: %d, want 400", got)
	}
	if got := put("not-a-key", good); got != http.StatusBadRequest {
		t.Fatalf("malformed key: %d, want 400", got)
	}

	// The manifest reflects the one stored cell; the cell GET round-trips
	// with a checksum the puller can verify.
	resp, err := http.Get(sh.ts.URL + "/v1/store/manifest")
	if err != nil {
		t.Fatal(err)
	}
	var mf cluster.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&mf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mf.ResultsVersion != harness.ResultsVersion || len(mf.Entries) != 1 || mf.Entries[0].Key != key {
		t.Fatalf("manifest = %+v, want the single stored cell", mf)
	}
	resp, err = http.Get(sh.ts.URL + "/v1/store/cells/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var cell cluster.CellResponse
	if err := json.NewDecoder(resp.Body).Decode(&cell); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !cell.Cached || string(cell.Result) != `{"v":1}` || cell.SHA256 != good.SHA256 {
		t.Fatalf("cell GET = %+v, want the stored bytes back", cell)
	}
}

func shaOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

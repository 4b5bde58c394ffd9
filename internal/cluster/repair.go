package cluster

// Anti-entropy rejoin repair: a shard that was dead missed every cell
// computed while it was down.  Hinted handoff covers the writes the
// coordinator managed to queue, but hints are bounded and the
// coordinator itself may have restarted — so on boot a rejoining shard
// *pulls* itself back into convergence: it fetches each replica peer's
// store manifest (GET /v1/store/manifest, the store's in-memory entry
// table sorted by key), diffs it against its own, and for every missing
// key that rendezvous-hashes this shard into the top-R replica set,
// fetches the cell (GET /v1/store/cells/{key}) and stores it.  Only
// after the pull completes does the shard report healthy, so the
// membership probes re-admit a repaired peer, never a hollow one.
//
// Version-skewed peers are skipped outright: their ResultsVersion is
// baked into every one of their keys, so nothing they hold could ever
// serve one of ours.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/store"
)

// RepairConfig assembles one rejoin-repair pass.
type RepairConfig struct {
	// Self is this shard's peer ID (used for the rendezvous placement
	// check; the addr is irrelevant — scores hash IDs only).
	Self string
	// Peers are the OTHER members of the cluster to diff against.
	Peers []Peer
	// Replicas is the cluster's replica-set size R; only keys whose
	// top-R set includes Self are pulled (0/1 = pull nothing beyond
	// primaries we own).
	Replicas int
	// Store receives the pulled cells.  Required.
	Store *store.Store
	// Client performs the manifest and cell fetches (nil = default).
	Client *Client
	// Logf, if non-nil, receives per-peer progress.
	Logf func(format string, args ...any)
}

// RepairStats reports what one repair pass did.
type RepairStats struct {
	// PeersDiffed counts peers whose manifest was fetched and compared.
	PeersDiffed int
	// PeersSkipped counts peers skipped for unreachability or version
	// skew.
	PeersSkipped int
	// Pulled counts cells fetched and stored.
	Pulled int
	// Failed counts cells that could not be fetched or verified; they
	// stay missing (a later read recomputes or the next repair retries).
	Failed int
}

// Repair runs one anti-entropy pass and returns its stats.  It is
// incremental-safe: pulling a cell twice just overwrites the identical
// bytes, and any failure leaves the store no worse than before — a
// missing cell is always a recompute, never an error.
func Repair(ctx context.Context, cfg RepairConfig) (RepairStats, error) {
	var st RepairStats
	if cfg.Store == nil {
		return st, fmt.Errorf("cluster: repair needs a store")
	}
	client := cfg.Client
	if client == nil {
		client = &Client{}
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}

	// The placement universe is the full peer set including ourselves;
	// rendezvous scores depend only on IDs, so this matches what every
	// coordinator computes.
	ring := append(append([]Peer{}, cfg.Peers...), Peer{ID: cfg.Self})
	self := len(ring) - 1

	have := make(map[string]bool)
	for _, e := range cfg.Store.Manifest() {
		have[e.Key] = true
	}

	for _, p := range cfg.Peers {
		var mf Manifest
		_, err := client.Do(ctx, Request{
			Method: http.MethodGet,
			URL:    p.URL() + "/v1/store/manifest",
			Out:    &mf,
			Key:    "manifest/" + p.ID,
		})
		if err != nil {
			st.PeersSkipped++
			if cfg.Logf != nil {
				cfg.Logf("cluster: repair: skipping %s: %v", p.ID, err)
			}
			continue
		}
		if mf.ResultsVersion != harness.ResultsVersion {
			st.PeersSkipped++
			if cfg.Logf != nil {
				cfg.Logf("cluster: repair: skipping %s: ResultsVersion %d, want %d",
					p.ID, mf.ResultsVersion, harness.ResultsVersion)
			}
			continue
		}
		st.PeersDiffed++
		for _, e := range mf.Entries {
			if have[e.Key] {
				continue
			}
			key, err := store.ParseKey(e.Key)
			if err != nil {
				continue
			}
			if !containsIndex(Owners(ring, key, replicas), self) {
				continue // not our cell: its replicas keep it
			}
			if err := pullCell(ctx, client, p, key, cfg.Store); err != nil {
				st.Failed++
				if cfg.Logf != nil {
					cfg.Logf("cluster: repair: pulling %.16s from %s: %v", e.Key, p.ID, err)
				}
				continue
			}
			have[e.Key] = true
			st.Pulled++
		}
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
	}
	return st, nil
}

// pullCell fetches one stored cell from a peer, verifies its checksum,
// and stores the raw payload locally (byte-identical to the origin).
func pullCell(ctx context.Context, client *Client, p Peer, key store.Key, st *store.Store) error {
	var resp CellResponse
	_, err := client.Do(ctx, Request{
		Method: http.MethodGet,
		URL:    p.URL() + "/v1/store/cells/" + key.String(),
		Out:    &resp,
		Key:    key.String(),
		Check: func() error {
			sum := sha256.Sum256(resp.Result)
			if hex.EncodeToString(sum[:]) != resp.SHA256 {
				return Retryable(fmt.Errorf("cluster: cell checksum mismatch from %s", p.ID))
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	return st.Put(key, json.RawMessage(resp.Result))
}

// AttachRepair registers the repair metric family and returns the
// counter a daemon bumps after each pass (Volatile: what a repair
// pulls depends on crash/restart timing, never on the seeded sweep).
func AttachRepair(sink *obs.Sink) *obs.Counter {
	reg := sink.Reg()
	if reg == nil {
		return nil
	}
	return reg.NewCounter("cluster_repair_pulled_total",
		obs.Opts{Help: "cells pulled from replica peers by rejoin repair", Volatile: true})
}

// containsIndex reports whether set contains i.
func containsIndex(set []int, i int) bool {
	for _, v := range set {
		if v == i {
			return true
		}
	}
	return false
}

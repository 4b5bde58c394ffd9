package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzBlobFile writes arbitrary bytes as one key's blob file — the
// store's only on-disk format — reopens the store and reads the key.
// Whatever the bytes, the read must not panic; a hit must come from an
// envelope whose schema, key and payload checksum all match; and a miss
// must delete the file and count it as corrupt.
func FuzzBlobFile(f *testing.F) {
	k := KeyOf("fuzz", "cell")
	blobOf := func(under Key) []byte {
		dir := f.TempDir()
		s, err := Open(dir, 0)
		if err != nil {
			f.Fatal(err)
		}
		if err := s.Put(under, payload{Name: "seed", Data: []float64{1, 2.5}}); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(s.blobPath(under))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := blobOf(k)
	flipped := bytes.Clone(valid)
	flipped[bytes.LastIndex(flipped, []byte("seed"))] ^= 0x01
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped)
	f.Add(blobOf(KeyOf("another", "cell")))
	f.Add(bytes.Replace(valid, []byte(`"schema":1`), []byte(`"schema":2`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, k.String()+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got any
		hit := s.Get(k, &got)
		st := s.Stats()
		if hit {
			var b blob
			if err := json.Unmarshal(data, &b); err != nil {
				t.Fatalf("hit on an undecodable envelope: %v", err)
			}
			sum := sha256.Sum256(b.Payload)
			if b.Schema != BlobSchema || b.Key != k.String() || b.SHA256 != hex.EncodeToString(sum[:]) {
				t.Fatalf("hit on a mismatched envelope: schema %d, key %q, sha %q", b.Schema, b.Key, b.SHA256)
			}
			if st.Hits != 1 || st.Corrupt != 0 {
				t.Fatalf("hit counted as %+v", st)
			}
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("rejected blob file kept on disk (stat: %v)", err)
		}
		if st.Misses != 1 || st.Corrupt != 1 || st.Entries != 0 {
			t.Fatalf("miss counted as %+v, want one corrupt miss and no entry", st)
		}
	})
}

package labkvs

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestShardHashMatchesFNV pins the inline hash to hash/fnv's New32a: shard
// placement is persisted implicitly (log replay re-inserts every record by
// hashing its key), so the function may never drift.
func TestShardHashMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "k0", "kv::/a", "user/00000042", "\x00\xff\x80", "ключ"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		keys = append(keys, string(b))
	}
	for _, key := range keys {
		h := fnv.New32a()
		h.Write([]byte(key))
		if got, want := fnv32a(key), h.Sum32(); got != want {
			t.Fatalf("fnv32a(%q) = %#x, hash/fnv = %#x", key, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = fnv32a("user/00000042") }); n != 0 {
		t.Fatalf("fnv32a allocates %v per call", n)
	}
}

package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenTables renders the tables that are deterministic at any
// GOMAXPROCS and host load at their `labbench -quick` sizes and compares
// them byte for byte with testdata/<name>.golden. A change that moves a
// modeled number fails here. The goldens are labbench's own output without
// its wall-time line; regenerate one with
//
//	go run ./cmd/labbench -exp NAME -quick | head -n -2 > internal/experiments/testdata/NAME.golden
func TestGoldenTables(t *testing.T) {
	cases := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"anatomy", Anatomy},
		{"storageapi", func() (*Result, error) { return StorageAPI(100) }},
		{"labios", func() (*Result, error) { return Labios(100) }},
		{"upgrade", func() (*Result, error) { return LiveUpgrade(10000, []int{0, 256, 512, 1024}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.String() + "\n"; got != string(want) {
				t.Fatalf("%s table moved:\n--- got\n%s--- want\n%s", c.name, got, want)
			}
		})
	}
}

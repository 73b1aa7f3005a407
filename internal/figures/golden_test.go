package figures

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current simulator")

// TestFiguresGolden pins simulated time: the text cmd/figures prints for
// Table 1 and Figures 3-8 over the nine benchmarks (figures -n 50000
// -warmup 30000) must match testdata/figures.golden byte for byte. Any
// change to a simulated count moves some cell; rerun with -update only
// when that is the intent.
func TestFiguresGolden(t *testing.T) {
	p := DefaultParams()
	p.Instructions, p.Warmup = 50_000, 30_000
	var buf bytes.Buffer
	fmt.Fprintln(&buf, p.Table1())
	for _, cc := range Fig3Configs {
		fmt.Fprintln(&buf, p.Fig3(cc))
	}
	fmt.Fprintln(&buf, p.Fig4())
	fmt.Fprintln(&buf, p.Fig5())
	fmt.Fprintln(&buf, p.Fig6())
	fmt.Fprintln(&buf, p.Fig7())
	fmt.Fprintln(&buf, p.Fig8())

	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("figure output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, buf.Bytes(), want)
	}
}

package integrity

import (
	"testing"

	"memverify/internal/mem"
)

func TestParseHashMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want HashMode
	}{
		{"", HashFull}, {"full", HashFull}, {"timing", HashTiming},
	} {
		got, err := ParseHashMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseHashMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() == "" {
			t.Errorf("HashMode(%v).String() empty", got)
		}
	}
	for _, bad := range []string{"bogus", "memo"} {
		if _, err := ParseHashMode(bad); err == nil {
			t.Errorf("ParseHashMode accepted %q", bad)
		}
	}
}

func TestAdversaryPanicsTimingExec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("guardHashMode did not panic in timing mode")
		}
	}()
	s := &System{Mem: mem.NewAdversary(mem.NewSparse()), HashMode: HashTiming}
	s.guardHashMode()
}

// TestTimingConstructorsRejectAdversary pins the construction-time guard:
// every tree engine refuses to build a timing-only system whose memory is
// already wrapped in an adversary (the rig always interposes one).
func TestTimingConstructorsRejectAdversary(t *testing.T) {
	for _, scheme := range []string{"c", "naive", "i"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			cfg := defaultRig(scheme)
			cfg.mode = HashTiming
			defer func() {
				if recover() == nil {
					t.Fatalf("scheme %s built a timing-only engine over an adversary", scheme)
				}
			}()
			newRig(t, cfg)
		})
	}
}

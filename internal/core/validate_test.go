package core

import (
	"strings"
	"testing"
)

// TestValidateRejectsBadConfigs pins the contract that every
// misconfiguration reachable from Config — including geometry the engine
// and substrate constructors would panic on — comes back from NewMachine
// as a descriptive error, never a panic. NewMachineFromState reports the
// same error even with no image to adopt: the config is checked first.
func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the expected error
	}{
		{"unknown scheme", func(c *Config) { c.Scheme = "z" }, "unknown scheme"},
		{"zero chunk blocks", func(c *Config) { c.ChunkBlocks = 0 }, "ChunkBlocks"},
		{"scheme c multi-block", func(c *Config) { c.ChunkBlocks = 2 }, "scheme c"},
		{"scheme m single block", func(c *Config) { c.Scheme = SchemeMulti }, "ChunkBlocks >= 2"},
		{"scheme i wrong MAC size", func(c *Config) {
			c.Scheme = SchemeIncr
			c.ChunkBlocks = 2
			c.HashSize = 8
		}, "MAC records"},
		{"scheme i chunk too wide", func(c *Config) {
			c.Scheme = SchemeIncr
			c.ChunkBlocks = 16
		}, "at most"},
		{"L1 block not power of two", func(c *Config) { c.L1Block = 48 }, "L1 block"},
		{"L1 zero ways", func(c *Config) { c.L1Ways = 0 }, "L1 ways"},
		{"L2 size not multiple", func(c *Config) { c.L2Size = 1000 }, "L2 size"},
		{"L2 set count not power of two", func(c *Config) { c.L2Size = 3 * (c.L2Ways * c.L2Block) }, "set count"},
		{"zero hash size", func(c *Config) { c.HashSize = 0 }, "HashSize"},
		{"chunk not multiple of hash", func(c *Config) { c.HashSize = 24 }, "not a multiple of HashSize"},
		{"degenerate arity", func(c *Config) { c.HashSize = 64 }, "arity"},
		{"zero hash buffers", func(c *Config) { c.HashBuffers = 0 }, "HashBuffers"},
		{"zero hash throughput", func(c *Config) { c.HashBytesPerCycle = 0 }, "HashBytesPerCycle"},
		{"unknown hash algorithm", func(c *Config) { c.HashAlg = "crc32" }, "crc32"},
		{"zero bus beat", func(c *Config) { c.BusBeatBytes = 0 }, "bus beat"},
		{"TLB entries not multiple of ways", func(c *Config) { c.TLB.Entries = 3; c.TLB.Ways = 2 }, "TLB entries"},
		{"TLB page size not power of two", func(c *Config) { c.TLB.PageSize = 3000 }, "page size"},
		{"zero fetch width", func(c *Config) { c.CPU.FetchWidth = 0 }, "CPU widths"},
		{"zero instructions", func(c *Config) { c.Instructions = 0 }, "instruction budget"},
		{"nothing protected", func(c *Config) { c.ProtectedBytes = 0 }, "nothing to protect"},
		{"unknown violation policy", func(c *Config) { c.ViolationPolicy = "panic" }, "panic"},
		{"retry violation policy", func(c *Config) { c.ViolationPolicy = "retry" }, "want record or halt"},
		{"unknown hash mode", func(c *Config) { c.HashMode = "approximate" }, "approximate"},
		{"functional region too large", func(c *Config) {
			c.Functional = true
			c.ProtectedBytes = 1 << 30
		}, "256 MiB"},
		{"benchmark exceeds protection", func(c *Config) {
			c.ProtectedBytes = 1 << 20
			c.Benchmark.WorkingSet = 2 << 20
		}, "footprint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NewMachine panicked instead of returning an error: %v", r)
				}
			}()
			m, err := NewMachine(cfg)
			if err == nil {
				t.Fatalf("NewMachine accepted the config (machine %v)", m != nil)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, err := NewMachineFromState(cfg, nil, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewMachineFromState without an image: %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsDefaults pins that every scheme's canonical
// configuration still passes validation.
func TestValidateAcceptsDefaults(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBase, SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		if scheme == SchemeMulti || scheme == SchemeIncr {
			cfg.ChunkBlocks = 4
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("scheme %s: %v", scheme, err)
		}
	}
}

package service

import (
	"fmt"
	"strconv"
	"strings"

	"memverify/internal/core"
)

// ParseTenants expands a tenant spec string into per-tenant configs. The
// spec is a comma-separated list of
//
//	name[:key=value[;key=value]...]
//
// where each tenant starts from the base config (deep enough a copy that
// overrides never leak between tenants) and overrides any of:
//
//	scheme    verification scheme (naive, c, m, i)
//	shards    shard count
//	protected total protected bytes
//	l2        per-shard L2 bytes
//	policy    violation policy (record or halt)
//	alg       hash algorithm (md5, sha1, fnv128)
//	chunk     L2 blocks per hash chunk
//	queue     per-shard queue depth
//
// e.g. "alpha,bravo:scheme=i;policy=halt,charlie:shards=8".
// Persistence placement (PersistDir/AnchorPath) is the daemon's concern —
// it derives per-tenant paths from its -persist root after parsing.
func ParseTenants(spec string, base TenantConfig) ([]TenantConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("service: empty tenant spec")
	}
	var out []TenantConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tc := base
		name, opts, _ := strings.Cut(part, ":")
		tc.Name = strings.TrimSpace(name)
		if err := checkTenantName(tc.Name); err != nil {
			return nil, err
		}
		if opts != "" {
			if err := applyTenantOpts(&tc, opts); err != nil {
				return nil, fmt.Errorf("service: tenant %s: %w", tc.Name, err)
			}
		}
		// Scheme-dependent chunk defaulting, as in cmd/simulate: m and i
		// need multi-block chunks unless the spec pinned one.
		m := &tc.Store.Machine
		if m.ChunkBlocks <= 1 && (m.Scheme == core.SchemeMulti || m.Scheme == core.SchemeIncr) {
			m.ChunkBlocks = 2
		}
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("service: empty tenant spec")
	}
	return out, nil
}

func applyTenantOpts(tc *TenantConfig, opts string) error {
	for _, kv := range strings.Split(opts, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("option %q: want key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		m := &tc.Store.Machine
		switch key {
		case "scheme":
			m.Scheme = core.Scheme(val)
		case "shards":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fmt.Errorf("shards=%q: want a positive integer", val)
			}
			tc.Store.Shards = n
		case "protected":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return fmt.Errorf("protected=%q: want positive bytes", val)
			}
			m.ProtectedBytes = n
		case "l2":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return fmt.Errorf("l2=%q: want positive bytes", val)
			}
			m.L2Size = n
		case "policy":
			m.ViolationPolicy = val
		case "alg":
			m.HashAlg = val
		case "chunk":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fmt.Errorf("chunk=%q: want a positive integer", val)
			}
			m.ChunkBlocks = n
		case "queue":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fmt.Errorf("queue=%q: want a positive integer", val)
			}
			tc.Store.QueueDepth = n
		default:
			return fmt.Errorf("unknown option %q", key)
		}
	}
	return nil
}

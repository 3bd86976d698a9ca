package cagc

// Canonical run identity. ConfigKey hashes everything that determines a
// run's deterministic Result — workload, scheme, victim policy, and
// every output-affecting Params field — and nothing that doesn't:
// ColdStart (wall-clock strategy), Trace (observational) and Ctx (a
// wall-clock bound) are excluded, exactly the identity discipline the
// warm-snapshot key and the fleet JSON already follow. Two submissions
// with equal ConfigKeys produce byte-identical result JSON, which is
// what lets the serving layer's result cache answer repeats without
// re-running, and what lets a CLI run be cross-checked against a
// service cache entry.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// configKeyVersion is bumped whenever the simulation's output for a
// fixed configuration legitimately changes (a modeling fix, a new
// counter in the JSON document), so stale cached results can never be
// mistaken for current ones.
const configKeyVersion = "cagc-run-v1"

// ConfigKey returns the canonical identity hash of one run: 64 hex
// characters of SHA-256 over the normalized configuration. Defaults are
// applied first (an empty policy means "greedy", zero Params fields
// take their documented defaults), so explicitly passing a default and
// omitting it key identically.
func ConfigKey(w Workload, s Scheme, policy string, p Params) string {
	sum := sha256.Sum256([]byte(configKeyMaterial(w, s, policy, p)))
	return hex.EncodeToString(sum[:])
}

// configKeyMaterial is the canonical preimage — kept separate so tests
// can assert exactly which fields enter the identity.
func configKeyMaterial(w Workload, s Scheme, policy string, p Params) string {
	p = p.withDefaults()
	if policy == "" {
		policy = "greedy"
	}
	return fmt.Sprintf(
		"%s|workload=%s|scheme=%s|policy=%s|device_bytes=%d|requests=%d|seed=%d|util=%g|"+
			"ref_threshold=%d|buffer_pages=%d|wear_level=%d|index_capacity=%d|queue_depth=%d|"+
			"mapping_cache=%d|erase_limit=%d",
		configKeyVersion, w, s, policy,
		p.DeviceBytes, p.Requests, p.Seed, p.Utilization,
		p.RefThreshold, p.BufferPages, p.WearLevelThreshold, p.IndexCapacity, p.QueueDepth,
		p.MappingCache, p.EraseLimit)
}

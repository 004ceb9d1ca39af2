package serve

import (
	"labstor/internal/mods/pushdown"
	"labstor/internal/spec"
)

// PolicyFromSpec converts one serve-block tenant entry into an admission
// policy.
func PolicyFromSpec(ts spec.TenantSpec) TenantPolicy {
	return TenantPolicy{
		Name:       ts.Name,
		RatePerSec: ts.RatePerSec,
		Burst:      ts.Burst,
		Inflight:   ts.Inflight,
	}
}

// ConfigFromSpec converts a parsed serve: block into a server Config.
// Shards/Replicas are router-mode fields the caller dispatches on; they have
// no server-side equivalent here.
func ConfigFromSpec(sv spec.ServeSpec) Config {
	cfg := Config{
		Addr:    sv.Addr,
		Batch:   sv.Batch,
		Default: PolicyFromSpec(sv.Default),
	}
	if sv.MaxPayloadMB > 0 {
		cfg.MaxPayload = sv.MaxPayloadMB << 20
	}
	for _, ts := range sv.Tenants {
		cfg.Tenants = append(cfg.Tenants, PolicyFromSpec(ts))
	}
	return cfg
}

// WithPushdown builds the pushdown policy from a parsed pushdown: block
// (registering its programs into the default registry) and attaches it to
// the config. A spec with no programs and no allow-list attaches nothing:
// the server keeps rejecting remote programs.
func (c *Config) WithPushdown(ps spec.PushdownSpec) error {
	if len(ps.Programs) == 0 && len(ps.Allow) == 0 && len(ps.Tenants) == 0 {
		return nil
	}
	pol, err := pushdown.PolicyFromSpec(ps, nil)
	if err != nil {
		return err
	}
	c.Pushdown = pol
	return nil
}

package policy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Quota caps how many bytes files under a path prefix may occupy on one
// tier — the §4 "Configuring Mux" direction: sharing a Mux among
// applications needs capacity isolation so one workload cannot squeeze
// others off the fast tiers.
type Quota struct {
	// Prefix selects files whose path starts with it ("/" matches all).
	Prefix string
	// Tier is the tier the cap applies to.
	Tier int
	// Bytes is the cap. Excess demotes to the next slower tier.
	Bytes int64
}

// QuotaPolicy wraps a base policy with per-prefix tier quotas. Placement
// delegates to the base policy; quota violations are corrected lazily by
// the Policy Runner (PlanMigrations), demoting the coldest offending files
// first. Quota caps are live-tunable: SetParam swaps a copy-on-write quota
// table, so an autotuner can resize a tenant's fast-tier budget while the
// Policy Runner is planning.
type QuotaPolicy struct {
	Base   Policy
	Quotas []Quota

	// quotasP, when set (SetParam), overrides Quotas — copy-on-write, so
	// PlanMigrations reads a consistent table without locks.
	quotasP atomic.Pointer[[]Quota]
}

// quotas returns the live quota table.
func (p *QuotaPolicy) quotas() []Quota {
	if q := p.quotasP.Load(); q != nil {
		return *q
	}
	return p.Quotas
}

// Name identifies the composite policy, quota config included, e.g.
// "lru+quota[/tenants/a:t0:64MiB]" — so muxsh and the migration log show
// which caps are actually in force, not just that some quota exists.
func (p *QuotaPolicy) Name() string {
	qs := p.quotas()
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = fmt.Sprintf("%s:t%d:%s", q.Prefix, q.Tier, fmtBytes(q.Bytes))
	}
	return p.Base.Name() + "+quota[" + strings.Join(parts, ",") + "]"
}

// fmtBytes renders a byte count compactly (power-of-two units).
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return strconv.FormatInt(n>>30, 10) + "GiB"
	case n >= 1<<20 && n%(1<<20) == 0:
		return strconv.FormatInt(n>>20, 10) + "MiB"
	case n >= 1<<10 && n%(1<<10) == 0:
		return strconv.FormatInt(n>>10, 10) + "KiB"
	default:
		return strconv.FormatInt(n, 10) + "B"
	}
}

// quotaParamName renders the SetParam name of one quota's byte cap.
func quotaParamName(q Quota) string {
	return fmt.Sprintf("quota_bytes:%s:t%d", q.Prefix, q.Tier)
}

// Quota byte caps may be tuned within [1/8×, 8×] of the configured value
// (floor 1 MiB, or the configured value if that is smaller, so a cap
// always lies inside its own range): wide enough for a controller to
// matter, bounded so it can never zero a tenant's budget and demote its
// entire working set.
func quotaClamp(configured int64) (min, max float64) {
	min = float64(configured) / 8
	if floor := math.Min(1<<20, float64(configured)); min < floor {
		min = floor
	}
	max = float64(configured) * 8
	if max < min {
		max = min
	}
	return min, max
}

// Params enumerates the base policy's knobs (when it is Tunable) plus one
// byte-cap knob per quota (Tunable).
func (p *QuotaPolicy) Params() []Param {
	var out []Param
	if t, ok := p.Base.(Tunable); ok {
		out = append(out, t.Params()...)
	}
	for i, q := range p.quotas() {
		min, max := quotaClamp(p.configuredBytes(i))
		out = append(out, Param{
			Name: quotaParamName(q), Kind: KindBytes,
			Value: float64(q.Bytes), Min: min, Max: max,
			Step: float64(q.Bytes) / 4,
		})
	}
	return out
}

// configuredBytes returns quota i's originally configured cap (the clamp
// anchor), falling back to the live value for quotas that exist only in
// the override table.
func (p *QuotaPolicy) configuredBytes(i int) int64 {
	if i < len(p.Quotas) {
		return p.Quotas[i].Bytes
	}
	return p.quotas()[i].Bytes
}

// SetParam resizes one quota cap (clamped) or forwards to the base policy
// (Tunable). Copy-on-write: concurrent PlanMigrations sees either the old
// or the new table, never a torn one.
func (p *QuotaPolicy) SetParam(name string, v float64) error {
	cur := p.quotas()
	for i, q := range cur {
		if quotaParamName(q) != name {
			continue
		}
		min, max := quotaClamp(p.configuredBytes(i))
		next := append([]Quota(nil), cur...)
		next[i].Bytes = int64(clampTo(v, min, max))
		p.quotasP.Store(&next)
		return nil
	}
	if t, ok := p.Base.(Tunable); ok {
		return t.SetParam(name, v)
	}
	return fmt.Errorf("%w: quota %q", ErrUnknownParam, name)
}

// PlaceWrite delegates to the base policy; over-quota placements are pulled
// back by the next planning round.
func (p *QuotaPolicy) PlaceWrite(ctx WriteCtx, tiers []TierInfo) int {
	return p.Base.PlaceWrite(ctx, tiers)
}

// PlanMigrations first emits quota-enforcement demotions, then the base
// policy's own plan. Demotions target the next slower *plain* tier:
// stripe tiers (TierInfo.Stripe) are skipped — shuffling a tenant's
// overflow onto an erasure-coded set fans every file out across remote
// nodes — and quarantined tiers never appear here at all (the Policy
// Runner snapshots only healthy tiers and drops any move that touches a
// tier whose breaker opened after the snapshot).
func (p *QuotaPolicy) PlanMigrations(tiers []TierInfo, files []FileStat, now time.Duration) []Move {
	var moves []Move

	// next maps a tier to the nearest slower non-stripe tier (tiers arrive
	// fastest-first). A stripe tier that is itself over quota still demotes
	// — only the *destination* selection avoids stripes.
	next := map[int]int{}
	for i := range tiers {
		for j := i + 1; j < len(tiers); j++ {
			if !tiers[j].Stripe {
				next[tiers[i].ID] = tiers[j].ID
				break
			}
		}
	}

	for _, q := range p.quotas() {
		dst, ok := next[q.Tier]
		if !ok {
			continue // no slower plain tier to demote to
		}
		var matching []FileStat
		var used int64
		for _, f := range files {
			if !strings.HasPrefix(f.Path, q.Prefix) {
				continue
			}
			if b := f.BytesOn(q.Tier); b > 0 {
				matching = append(matching, f)
				used += b
			}
		}
		if used <= q.Bytes {
			continue
		}
		// Demote coldest first until the prefix fits its budget.
		sort.Slice(matching, func(i, j int) bool {
			return matching[i].LastAccess < matching[j].LastAccess
		})
		over := used - q.Bytes
		for _, f := range matching {
			if over <= 0 {
				break
			}
			moves = append(moves, Move{Path: f.Path, SrcTier: q.Tier, DstTier: dst, Off: 0, N: -1, Quota: true})
			over -= f.BytesOn(q.Tier)
		}
	}

	return append(moves, p.Base.PlanMigrations(tiers, files, now)...)
}

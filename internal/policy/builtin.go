package policy

import (
	"fmt"
	"sort"
	"time"
)

// Pinned always places on one tier and never migrates. The benchmark
// harness uses it to direct I/O at a single device (experiment E2) and to
// isolate the Mux indirection overhead (E3/E4).
type Pinned struct {
	Tier int
}

// Name identifies the policy.
func (p Pinned) Name() string { return "pinned" }

// PlaceWrite always returns the pinned tier.
func (p Pinned) PlaceWrite(WriteCtx, []TierInfo) int { return p.Tier }

// PlanMigrations never migrates.
func (p Pinned) PlanMigrations([]TierInfo, []FileStat, time.Duration) []Move { return nil }

// LRU is the policy used in the paper's §3 comparison: place data on the
// fastest tier with room; when a tier fills past the high watermark, evict
// the coldest files down one tier; promote files back up when they are
// accessed again ("promotes data back upon access").
type LRU struct {
	// HighWatermark is the fill fraction that triggers demotion (default 0.9).
	HighWatermark float64
	// LowWatermark is the fill demotion drains down to (default 0.7).
	LowWatermark float64
	// PromoteWindow: files accessed within this window get promoted
	// (default 1ms of virtual time — "recently accessed").
	PromoteWindow time.Duration

	// MirrorPromote turns promotion into deliberate mirroring: a recently
	// accessed file on a slower tier gains a fast-tier *mirror* (Move.Mirror)
	// instead of migrating its primary, so the read router can serve it from
	// either copy while the slow tier keeps its settled placement. Mirror
	// bytes are budgeted against the fast tier's low watermark alongside its
	// primary bytes (core usage counters only see authoritative blocks, so
	// the policy tracks the mirror ledger itself from FileStat.Replica), and
	// demotion clears mirrors off an over-full tier before it moves any
	// primaries. Off by default — plans are then identical to the classic
	// LRU.
	MirrorPromote bool

	// Atomic knob overrides (SetParam); the exported fields above stay the
	// initial configuration.
	highK, lowK, winK knob
}

// DefaultLRU returns the watermarks used in the evaluation.
func DefaultLRU() *LRU {
	return &LRU{HighWatermark: 0.9, LowWatermark: 0.7, PromoteWindow: time.Millisecond}
}

// Name identifies the policy.
func (p *LRU) Name() string { return "lru" }

// PlaceWrite picks the fastest tier with room under the high watermark.
func (p *LRU) PlaceWrite(ctx WriteCtx, tiers []TierInfo) int {
	return fastestWithRoom(tiers, ctx.N, p.highWM())
}

func (p *LRU) highWM() float64 {
	def := p.HighWatermark
	if def <= 0 {
		def = 0.9
	}
	return p.highK.load(def)
}

func (p *LRU) lowWM() float64 {
	def := p.LowWatermark
	if def <= 0 {
		def = 0.7
	}
	low := p.lowK.load(def)
	// Safety invariant regardless of what a tuner set: demotion must drain
	// to strictly below the trigger watermark, or every round re-plans the
	// same moves forever. Only a crossing is corrected — a hand-configured
	// small gap is legitimate and stays untouched.
	if high := p.highWM(); low >= high {
		low = high - lruWMGap
		if low < 0 {
			low = 0
		}
	}
	return low
}

func (p *LRU) promoteWin() time.Duration {
	def := p.PromoteWindow
	if def <= 0 {
		def = time.Millisecond
	}
	return time.Duration(p.winK.load(float64(def)))
}

// LRU knob clamps. The watermark floor keeps demotion from draining the
// fast tier outright; the ceiling keeps placement from wedging a tier at
// 100%. The high watermark's floor leaves lowWM's crossing gap above the
// low watermark's, so the corrected low watermark stays in its own range.
// The promote window spans "only the last instant" to "everything this
// epoch".
const (
	lruWMMin   = 0.30
	lruWMMax   = 0.98
	lruWMGap   = 0.02
	lruHighMin = lruWMMin + lruWMGap
	lruWinMin  = float64(50 * time.Microsecond)
	lruWinMax  = float64(100 * time.Millisecond)
)

// demoteSlack is the headroom under the high watermark at which demotion
// already counts the tier as full. PlaceWrite refuses any write that would
// cross the watermark, so a busy tier's usage converges to just *under*
// high*capacity and a bare ">= high" trigger is unreachable — the fast
// tier silts up with cold files and the demotion path never runs (the E14
// aggressor drill exhibits exactly this plateau). One migration granule of
// slack makes "can no longer admit a typical write" mean "at the
// watermark", which is what keeps data flowing downward under sustained
// ingest.
const demoteSlack = 1 << 20

// Params enumerates the LRU knobs (Tunable).
func (p *LRU) Params() []Param {
	return []Param{
		// Step 0.08: a probe must move the objective past interval noise
		// (sampling jitter on the fast-read fraction is a few percent), and
		// a 4% watermark nudge on a small fast tier does not.
		{Name: "high_watermark", Kind: KindFraction, Value: p.highWM(), Min: lruHighMin, Max: lruWMMax, Step: 0.08},
		{Name: "low_watermark", Kind: KindFraction, Value: p.lowWM(), Min: lruWMMin, Max: lruWMMax, Step: 0.08},
		{Name: "promote_window_ns", Kind: KindDuration, Value: float64(p.promoteWin()), Min: lruWinMin, Max: lruWinMax, Step: float64(250 * time.Microsecond)},
	}
}

// SetParam installs an atomic knob override, clamped into the safe range
// (Tunable). Safe to call concurrently with PlaceWrite/PlanMigrations.
func (p *LRU) SetParam(name string, v float64) error {
	switch name {
	case "high_watermark":
		p.highK.store(clampTo(v, lruHighMin, lruWMMax))
	case "low_watermark":
		p.lowK.store(clampTo(v, lruWMMin, lruWMMax))
	case "promote_window_ns":
		p.winK.store(clampTo(v, lruWinMin, lruWinMax))
	default:
		return fmt.Errorf("%w: lru %q", ErrUnknownParam, name)
	}
	return nil
}

// PlanMigrations demotes cold files off over-full tiers and promotes
// recently accessed files to faster tiers with room.
func (p *LRU) PlanMigrations(tiers []TierInfo, files []FileStat, now time.Duration) []Move {
	var moves []Move
	onTier := func(f FileStat, id int) bool {
		for _, t := range f.Tiers {
			if t == id {
				return true
			}
		}
		return false
	}

	// Mirror ledger (MirrorPromote only): core usage counters map only
	// authoritative blocks, so mirror bytes are accounted here from the
	// FileStat replica marks.
	var mirroredOn map[int]int64
	if p.MirrorPromote {
		mirroredOn = make(map[int]int64)
		for _, f := range files {
			if f.Replica >= 0 {
				mirroredOn[f.Replica] += f.Size
			}
		}
	}

	// Demotion: for each over-watermark tier, push coldest files down.
	// Under MirrorPromote the watermark test counts mirror bytes too, and
	// mirrors are cleared first — dropping a mirror frees fast-tier bytes
	// without copying anything, and the read router stops using it the
	// instant the clear lands.
	for i, t := range tiers {
		if i == len(tiers)-1 {
			continue
		}
		extra := mirroredOn[t.ID] // nil map reads as 0 when MirrorPromote is off
		if float64(t.Used+extra)+demoteSlack < p.highWM()*float64(t.Capacity) {
			continue
		}
		dst := tiers[i+1].ID
		need := t.Used + extra - int64(p.lowWM()*float64(t.Capacity))
		if p.MirrorPromote {
			var mirrored []FileStat
			for _, f := range files {
				if f.Replica == t.ID {
					mirrored = append(mirrored, f)
				}
			}
			sort.Slice(mirrored, func(a, b int) bool {
				return mirrored[a].LastAccess < mirrored[b].LastAccess
			})
			for _, f := range mirrored {
				if need <= 0 {
					break
				}
				moves = append(moves, Move{Path: f.Path, SrcTier: t.ID, DstTier: -1, Off: 0, N: -1, Mirror: true})
				need -= f.Size
			}
		}
		var candidates []FileStat
		for _, f := range files {
			if onTier(f, t.ID) {
				candidates = append(candidates, f)
			}
		}
		sort.Slice(candidates, func(a, b int) bool {
			return candidates[a].LastAccess < candidates[b].LastAccess
		})
		for _, f := range candidates {
			if need <= 0 {
				break
			}
			moves = append(moves, Move{Path: f.Path, SrcTier: t.ID, DstTier: dst, Off: 0, N: -1})
			need -= f.Size
		}
	}

	// Promotion: recently accessed files living on slower tiers move up
	// when the faster tier has room. Under MirrorPromote the move is a
	// mirror placement instead — the warm file gains a fast-tier copy for
	// the read router and keeps its primary where it is — and the room
	// budget charges existing mirror bytes against the destination.
	window := p.promoteWin()
	for i := 1; i < len(tiers); i++ {
		src := tiers[i]
		dst := tiers[i-1]
		room := int64(p.lowWM()*float64(dst.Capacity)) - dst.Used - mirroredOn[dst.ID]
		for _, f := range files {
			if room <= 0 {
				break
			}
			if !onTier(f, src.ID) || now-f.LastAccess > window {
				continue
			}
			if p.MirrorPromote {
				if f.Replica == dst.ID || onTier(f, dst.ID) {
					continue // already mirrored or already resident there
				}
				moves = append(moves, Move{Path: f.Path, SrcTier: src.ID, DstTier: dst.ID, Off: 0, N: -1, Promote: true, Mirror: true})
			} else {
				moves = append(moves, Move{Path: f.Path, SrcTier: src.ID, DstTier: dst.ID, Off: 0, N: -1, Promote: true})
			}
			room -= f.Size
		}
	}
	return moves
}

// TPFSLike reproduces the TPFS placement rule the paper cites as an example
// of a policy expressible as a simple function (§2.1): small or synchronous
// writes go to the fastest (PM) tier, large asynchronous writes go down the
// hierarchy by size.
type TPFSLike struct {
	// SmallThreshold routes writes below it to the fastest tier
	// (default 64 KiB).
	SmallThreshold int64
	// LargeThreshold routes writes above it to the slowest tier
	// (default 4 MiB); in-between sizes go to the middle tier.
	LargeThreshold int64

	smallK, largeK knob
}

// DefaultTPFS returns thresholds in the spirit of TPFS.
func DefaultTPFS() *TPFSLike {
	return &TPFSLike{SmallThreshold: 64 << 10, LargeThreshold: 4 << 20}
}

// Name identifies the policy.
func (p *TPFSLike) Name() string { return "tpfs" }

func (p *TPFSLike) smallThr() int64 { return int64(p.smallK.load(float64(p.SmallThreshold))) }
func (p *TPFSLike) largeThr() int64 { return int64(p.largeK.load(float64(p.LargeThreshold))) }

// TPFS knob clamps: the small threshold stays a "small write" (one block
// to 1 MiB), the large threshold a "large write" (256 KiB to 64 MiB).
const (
	tpfsSmallMin = float64(4 << 10)
	tpfsSmallMax = float64(1 << 20)
	tpfsLargeMin = float64(256 << 10)
	tpfsLargeMax = float64(64 << 20)
)

// Params enumerates the TPFS knobs (Tunable).
func (p *TPFSLike) Params() []Param {
	return []Param{
		{Name: "small_threshold_bytes", Kind: KindBytes, Value: float64(p.smallThr()), Min: tpfsSmallMin, Max: tpfsSmallMax, Step: 16 << 10},
		{Name: "large_threshold_bytes", Kind: KindBytes, Value: float64(p.largeThr()), Min: tpfsLargeMin, Max: tpfsLargeMax, Step: 512 << 10},
	}
}

// SetParam installs an atomic knob override, clamped (Tunable).
func (p *TPFSLike) SetParam(name string, v float64) error {
	switch name {
	case "small_threshold_bytes":
		p.smallK.store(clampTo(v, tpfsSmallMin, tpfsSmallMax))
	case "large_threshold_bytes":
		p.largeK.store(clampTo(v, tpfsLargeMin, tpfsLargeMax))
	default:
		return fmt.Errorf("%w: tpfs %q", ErrUnknownParam, name)
	}
	return nil
}

// PlaceWrite routes by I/O size and synchronicity.
func (p *TPFSLike) PlaceWrite(ctx WriteCtx, tiers []TierInfo) int {
	if len(tiers) == 1 {
		return tiers[0].ID
	}
	if ctx.Sync || ctx.N <= p.smallThr() {
		return fastestWithRoom(tiers, ctx.N, 0.95)
	}
	if ctx.N >= p.largeThr() {
		return tiers[len(tiers)-1].ID
	}
	mid := tiers[len(tiers)/2]
	if float64(mid.Used+ctx.N) <= 0.95*float64(mid.Capacity) {
		return mid.ID
	}
	return tiers[len(tiers)-1].ID
}

// PlanMigrations demotes like LRU so the fast tier never wedges full.
func (p *TPFSLike) PlanMigrations(tiers []TierInfo, files []FileStat, now time.Duration) []Move {
	return DefaultLRU().PlanMigrations(tiers, files, now)
}

// HotCold classifies files by decayed access frequency: hot files climb to
// fast tiers, cold files sink, regardless of recency spikes.
type HotCold struct {
	// HotHeat is the heat above which a file is promoted (default 5).
	HotHeat float64
	// ColdHeat is the heat below which a file is demoted (default 0.5).
	ColdHeat float64

	hotK, coldK knob
}

// DefaultHotCold returns the default classification thresholds.
func DefaultHotCold() *HotCold { return &HotCold{HotHeat: 5, ColdHeat: 0.5} }

// Name identifies the policy.
func (p *HotCold) Name() string { return "hotcold" }

func (p *HotCold) hotHeat() float64  { return p.hotK.load(p.HotHeat) }
func (p *HotCold) coldHeat() float64 { return p.coldK.load(p.ColdHeat) }

// HotCold knob clamps: heat is a decayed access count, halved per policy
// round; double digits is already "very hot".
const (
	hcHeatMin = 0.05
	hcHeatMax = 64.0
)

// Params enumerates the HotCold knobs (Tunable).
func (p *HotCold) Params() []Param {
	return []Param{
		{Name: "hot_heat", Kind: KindScalar, Value: p.hotHeat(), Min: hcHeatMin, Max: hcHeatMax, Step: 0.5},
		{Name: "cold_heat", Kind: KindScalar, Value: p.coldHeat(), Min: hcHeatMin, Max: hcHeatMax, Step: 0.1},
	}
}

// SetParam installs an atomic knob override, clamped (Tunable).
func (p *HotCold) SetParam(name string, v float64) error {
	switch name {
	case "hot_heat":
		p.hotK.store(clampTo(v, hcHeatMin, hcHeatMax))
	case "cold_heat":
		p.coldK.store(clampTo(v, hcHeatMin, hcHeatMax))
	default:
		return fmt.Errorf("%w: hotcold %q", ErrUnknownParam, name)
	}
	return nil
}

// PlaceWrite starts everything on the fastest tier with room; heat sorts it
// out later.
func (p *HotCold) PlaceWrite(ctx WriteCtx, tiers []TierInfo) int {
	return fastestWithRoom(tiers, ctx.N, 0.9)
}

// PlanMigrations promotes hot files and demotes cold ones one tier at a
// time.
func (p *HotCold) PlanMigrations(tiers []TierInfo, files []FileStat, now time.Duration) []Move {
	var moves []Move
	tierIdx := make(map[int]int, len(tiers))
	for i, t := range tiers {
		tierIdx[t.ID] = i
	}
	hot, cold := p.hotHeat(), p.coldHeat()
	for _, f := range files {
		for _, tid := range f.Tiers {
			i := tierIdx[tid]
			switch {
			case f.Heat >= hot && i > 0:
				dst := tiers[i-1]
				if float64(dst.Used+f.Size) <= 0.9*float64(dst.Capacity) {
					moves = append(moves, Move{Path: f.Path, SrcTier: tid, DstTier: dst.ID, Off: 0, N: -1, Promote: true})
				}
			case f.Heat <= cold && i < len(tiers)-1:
				moves = append(moves, Move{Path: f.Path, SrcTier: tid, DstTier: tiers[i+1].ID, Off: 0, N: -1})
			}
		}
	}
	return moves
}

// Func adapts plain functions into a Policy — the "register a tiering rule"
// extensibility hook (the paper's eBPF analogue).
type Func struct {
	PolicyName string
	Place      func(ctx WriteCtx, tiers []TierInfo) int
	Plan       func(tiers []TierInfo, files []FileStat, now time.Duration) []Move
}

// Name identifies the policy.
func (p Func) Name() string {
	if p.PolicyName == "" {
		return "func"
	}
	return p.PolicyName
}

// PlaceWrite delegates to Place (fastest tier when nil).
func (p Func) PlaceWrite(ctx WriteCtx, tiers []TierInfo) int {
	if p.Place == nil {
		return tiers[0].ID
	}
	return p.Place(ctx, tiers)
}

// PlanMigrations delegates to Plan (no moves when nil).
func (p Func) PlanMigrations(tiers []TierInfo, files []FileStat, now time.Duration) []Move {
	if p.Plan == nil {
		return nil
	}
	return p.Plan(tiers, files, now)
}

// Package bench is the experiment harness that regenerates every figure and
// in-text result table of the paper's evaluation (§3), plus the ablations
// listed in DESIGN.md. Experiments (registry.go) lists them; cmd/muxbench
// is its CLI front-end and the root bench_test.go exposes the paper's
// experiments as testing.B benchmarks.
//
// Most timing is virtual (internal/simclock): throughput and latency come
// from the device/FS cost models, so those results are deterministic and
// host-independent. EXPERIMENTS.md compares the shapes and ratios to the
// paper's.
package bench

import (
	"fmt"

	"muxfs/internal/core"
	"muxfs/internal/device"
	"muxfs/internal/fs/extlite"
	"muxfs/internal/fs/novafs"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/policy"
	"muxfs/internal/simclock"
	"muxfs/internal/strata"
	"muxfs/internal/vfs"
)

// TierName labels the three tiers in experiment output, matching the paper.
var TierName = []string{"PM", "SSD", "HDD"}

// stackSpec describes one experiment's three-tier stack: NOVA on a PM
// device, xfs on an SSD, ext4 on an HDD, all on one virtual clock and
// mounted in that order as tiers 0, 1 and 2 of one Mux. Zero fields keep
// the defaults.
type stackSpec struct {
	mux       core.Config // Clock and MetaDevice are filled in
	caps      [3]int64    // device capacities; 0 keeps the profile's
	pageCache [3]int64    // xfs and ext4 page-cache bytes (indexes 1, 2); 0 keeps 128 MiB
	metaCap   int64       // capacity of a PM journal device for the Mux; 0 = none
	// govern, when set, wraps each tier's file system before the Mux
	// mounts it: the wall-clock service-time governors of E5, E7, E8, E10.
	govern func(tier int, fs vfs.FileSystem) vfs.FileSystem
}

// paperSpec is the stack the paper-comparison experiments share (E1–E4,
// E13, A1–A6): default PM and SSD, a 2 GiB HDD, a Mux named "mux".
func paperSpec(pol policy.Policy) stackSpec {
	return stackSpec{caps: [3]int64{2: 2 << 30}, mux: core.Config{Name: "mux", Policy: pol}}
}

// stack is an assembled three-tier Mux plus direct access to its pieces.
// The native file systems stay usable on their own: the §3.2 overhead
// baselines (E3, E4) measure them without going through the Mux.
type stack struct {
	clk  *simclock.Clock
	mux  *core.Mux
	devs [3]*device.Device // PM, SSD, HDD
	fses [3]vfs.FileSystem // nova, xfs, ext — governed when spec.govern is set
	meta *device.Device    // the Mux's journal device, when spec.metaCap > 0
}

// newStack builds the stack spec describes.
func newStack(spec stackSpec) (*stack, error) {
	clk := simclock.New()
	s := &stack{clk: clk}
	profs := [3]device.Profile{device.PMProfile("pmem0"), device.SSDProfile("ssd0"), device.HDDProfile("hdd0")}
	for i := range profs {
		if spec.caps[i] > 0 {
			profs[i].Capacity = spec.caps[i]
		}
		s.devs[i] = device.New(profs[i], clk)
	}
	nova, err := novafs.New("nova@pmem0", s.devs[0], novafs.DefaultCosts())
	if err != nil {
		return nil, err
	}
	xfs, err := xfslite.NewWithCache("xfs@ssd0", s.devs[1], spec.pageCache[1])
	if err != nil {
		return nil, err
	}
	ext, err := extlite.NewWithCache("ext4@hdd0", s.devs[2], spec.pageCache[2])
	if err != nil {
		return nil, err
	}
	s.fses = [3]vfs.FileSystem{nova, xfs, ext}

	cfg := spec.mux
	cfg.Clock = clk
	if spec.metaCap > 0 {
		prof := device.PMProfile("muxmeta")
		prof.Capacity = spec.metaCap
		s.meta = device.New(prof, clk)
		cfg.MetaDevice = s.meta
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := range s.fses {
		if spec.govern != nil {
			s.fses[i] = spec.govern(i, s.fses[i])
		}
		m.AddTier(s.fses[i], profs[i])
	}
	s.mux = m
	return s, nil
}

// placement maps each of files paths (dir/f00, dir/f01, ...) to its blocks
// per tier, read from the native FSes.
func (s *stack) placement(dir string, files int) map[string][3]int64 {
	out := map[string][3]int64{}
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("%s/f%02d", dir, i)
		var row [3]int64
		for tier, fs := range s.fses {
			fi, err := fs.Stat(path)
			if err != nil {
				continue // not present on this tier
			}
			row[tier] = fi.Blocks
		}
		out[path] = row
	}
	return out
}

// StrataStack is the monolithic baseline over the same device trio.
type StrataStack struct {
	Clk  *simclock.Clock
	FS   *strata.FS
	Devs [3]*device.Device
}

// NewStrataStack builds Strata with an optional digest placement override.
func NewStrataStack(place strata.Placement) (*StrataStack, error) {
	clk := simclock.New()
	s := &StrataStack{Clk: clk}
	s.Devs[0] = device.New(device.PMProfile("pm0"), clk)
	s.Devs[1] = device.New(device.SSDProfile("ssd0"), clk)
	hddProf := device.HDDProfile("hdd0")
	hddProf.Capacity = 2 << 30
	s.Devs[2] = device.New(hddProf, clk)
	fs, err := strata.New(strata.Config{
		Name: "strata", PM: s.Devs[0], SSD: s.Devs[1], HDD: s.Devs[2],
		Costs: strata.DefaultCosts(), Placement: place,
	})
	if err != nil {
		return nil, err
	}
	s.FS = fs
	return s, nil
}

// classOf maps experiment tier index to device class.
func classOf(i int) device.Class {
	switch i {
	case 0:
		return device.PM
	case 1:
		return device.SSD
	default:
		return device.HDD
	}
}

// mustWrite writes data, failing loudly on error.
func mustWrite(f vfs.File, p []byte, off int64) error {
	n, err := f.WriteAt(p, off)
	if err != nil {
		return fmt.Errorf("bench write at %d: %w", off, err)
	}
	if n != len(p) {
		return fmt.Errorf("bench write at %d: short write %d/%d", off, n, len(p))
	}
	return nil
}

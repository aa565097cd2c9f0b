package core

import (
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fs/extlite"
	"muxfs/internal/fs/novafs"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/fstest"
	"muxfs/internal/policy"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// rig is a full three-tier Mux stack for tests.
type rig struct {
	clk  *simclock.Clock
	m    *Mux
	pm   *device.Device
	ssd  *device.Device
	hdd  *device.Device
	meta *device.Device
	ids  struct{ pm, ssd, hdd int }
}

func newRig(t *testing.T, pol policy.Policy, withMeta bool) *rig {
	t.Helper()
	return buildRig(t, pol, withMeta, nil, nil)
}

// newWrappedRig is newRig with each tier's file system passed through wrap
// before it registers, so a test can observe or fault it.
func newWrappedRig(t *testing.T, pol policy.Policy, withMeta bool, wrap func(vfs.FileSystem) vfs.FileSystem) *rig {
	t.Helper()
	return buildRig(t, pol, withMeta, wrap, nil)
}

// newRigConfig is newRig with tune applied to the Mux's Config before New.
func newRigConfig(t *testing.T, pol policy.Policy, withMeta bool, tune func(*Config)) *rig {
	t.Helper()
	return buildRig(t, pol, withMeta, nil, tune)
}

func buildRig(t *testing.T, pol policy.Policy, withMeta bool, wrap func(vfs.FileSystem) vfs.FileSystem, tune func(*Config)) *rig {
	t.Helper()
	clk := simclock.New()
	r := &rig{clk: clk}
	r.pm = device.New(device.PMProfile("pmem0"), clk)
	r.ssd = device.New(device.SSDProfile("ssd0"), clk)
	hddProf := device.HDDProfile("hdd0")
	hddProf.Capacity = 1 << 30
	r.hdd = device.New(hddProf, clk)

	cfg := Config{Name: "mux", Clock: clk, Policy: pol}
	if withMeta {
		metaProf := device.PMProfile("muxmeta")
		metaProf.Capacity = 16 << 20
		r.meta = device.New(metaProf, clk)
		cfg.MetaDevice = r.meta
	}
	if tune != nil {
		tune(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nova, err := novafs.New("nova@pmem0", r.pm, novafs.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	xfs, err := xfslite.New("xfs@ssd0", r.ssd)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := extlite.New("ext4@hdd0", r.hdd)
	if err != nil {
		t.Fatal(err)
	}
	tiers := []vfs.FileSystem{nova, xfs, ext}
	if wrap != nil {
		for i := range tiers {
			tiers[i] = wrap(tiers[i])
		}
	}
	r.ids.pm = m.AddTier(tiers[0], r.pm.Profile())
	r.ids.ssd = m.AddTier(tiers[1], r.ssd.Profile())
	r.ids.hdd = m.AddTier(tiers[2], r.hdd.Profile())
	r.m = m
	return r
}

// xfsTier bundles a runtime-added tier for tests.
type xfsTier struct {
	fs   vfs.FileSystem
	prof device.Profile
}

func newXFSTier(clk *simclock.Clock) (*xfsTier, error) {
	dev := device.New(device.SSDProfile("ssd-extra"), clk)
	fs, err := xfslite.New("xfs@ssd-extra", dev)
	if err != nil {
		return nil, err
	}
	return &xfsTier{fs: fs, prof: dev.Profile()}, nil
}

func TestConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem {
		return newRig(t, policy.DefaultLRU(), false).m
	})
}

func TestConformancePinnedSSD(t *testing.T) {
	// The whole contract must hold regardless of which tier data lands on.
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem {
		r := newRig(t, policy.Pinned{}, false)
		return newRig(t, policy.Pinned{Tier: r.ids.ssd}, false).m
	})
}

func TestConformanceTPFS(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem {
		return newRig(t, policy.DefaultTPFS(), false).m
	})
}

func TestCrashRecovery(t *testing.T) {
	fstest.RunCrashRecovery(t, func(t *testing.T) (vfs.FileSystem, func() vfs.FileSystem) {
		r := newRig(t, policy.DefaultLRU(), true)
		return r.m, func() vfs.FileSystem {
			r.m.Crash()
			if err := r.m.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			return r.m
		}
	})
}

func TestConcurrencySuite(t *testing.T) {
	fstest.RunConcurrency(t, func(t *testing.T) vfs.FileSystem {
		return newRig(t, policy.DefaultLRU(), false).m
	})
}

func TestCrashTorture(t *testing.T) {
	fstest.RunCrashTorture(t, func(t *testing.T) (vfs.FileSystem, func() vfs.FileSystem) {
		r := newRig(t, policy.DefaultLRU(), true)
		return r.m, func() vfs.FileSystem {
			r.m.Crash()
			if err := r.m.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			return r.m
		}
	}, 12)
}

// Command muxbench regenerates every figure and result table from the
// paper's evaluation (§3), the experiments beyond it, and the ablations in
// DESIGN.md, then holds each result to its acceptance gates: it exits
// nonzero when any experiment fails a gate.
//
// Usage:
//
//	muxbench                        # every experiment, full size
//	muxbench -exp e3                # one experiment (muxbench -h lists them)
//	muxbench -size smoke -json DIR  # the CI run: bounded E11–E14, BENCH_<exp>.json per experiment
//
// Profiling flags for lock-contention work (-cpuprofile, -mutexprofile,
// -blockprofile) write runtime/pprof profiles covering the selected
// experiments; see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"muxfs/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, or one of the names listed below")
	size := flag.String("size", "full", "experiment size: full, or smoke for the bounded CI variants of E11–E14")
	jsonDir := flag.String("json", "", "directory to write machine-readable BENCH_<exp>.json results into")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file (records every contended acquisition)")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file (records every blocking event)")
	flag.Usage = usage
	flag.Parse()

	sz, err := bench.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muxbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	var selected []bench.Experiment
	for _, e := range bench.Experiments {
		if *exp == "all" || strings.EqualFold(*exp, e.Name) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "muxbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles := startProfiles(*cpuProfile, *mutexProfile, *blockProfile)
	out := os.Stdout
	failed := false
	for _, e := range selected {
		bench.Rule(out, e.Title)
		r, err := e.Run(sz)
		if err != nil {
			fmt.Fprintf(os.Stderr, "muxbench: %s: %v\n", e.Name, err)
			failed = true
			continue
		}
		r.Format(out)
		if *jsonDir != "" {
			path, err := bench.WriteJSON(*jsonDir, e.Name, r)
			fail(err)
			fmt.Fprintf(out, "  [json: %s]\n", path)
		}
		if err := r.Check(bench.AllGates); err != nil {
			fmt.Fprintf(os.Stderr, "muxbench: %s failed its gates:\n%v\n", e.Name, err)
			failed = true
		}
	}
	stopProfiles()
	if failed {
		os.Exit(1)
	}
}

// usage lists the flags and the registered experiments.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, "Usage: muxbench [flags]\n\nFlags:\n")
	flag.PrintDefaults()
	fmt.Fprintf(w, "\nExperiments, in the order -exp all runs them:\n")
	for _, e := range bench.Experiments {
		fmt.Fprintf(w, "  %-4s %s\n", e.Name, e.Title)
	}
}

// startProfiles enables the requested runtime/pprof collectors and returns
// a function that flushes them. Mutex and block profiling are sampled at
// full rate so before/after contention comparisons see every event.
func startProfiles(cpu, mutex, block string) func() {
	var stops []func()
	if cpu != "" {
		f, err := os.Create(cpu)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(1)
		stops = append(stops, func() {
			writeProfile("mutex", mutex)
			runtime.SetMutexProfileFraction(0)
		})
	}
	if block != "" {
		runtime.SetBlockProfileRate(1)
		stops = append(stops, func() {
			writeProfile("block", block)
			runtime.SetBlockProfileRate(0)
		})
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}
}

func writeProfile(name, path string) {
	f, err := os.Create(path)
	fail(err)
	defer f.Close()
	fail(pprof.Lookup(name).WriteTo(f, 0))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "muxbench:", err)
		os.Exit(1)
	}
}

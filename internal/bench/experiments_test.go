package bench

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"muxfs/internal/race"
)

// Each registered experiment has one shape test. testExperiment runs it at
// smoke size and holds it to its own Check: the qualitative shapes the
// paper reports (who wins, in which direction, within sane bounds) and the
// correctness oracles, so a regression in any layer of the stack that
// bends a result the wrong way fails loudly. The wall-clock claims that
// need an idle host stay with muxbench (AllGates); the race detector's
// instrumentation also drops the ratios that need an uninstrumented build.
// Virtual-time experiments run twice and must marshal to identical bytes.

func TestE1Shape(t *testing.T)  { testExperiment(t, "e1") }
func TestE2Shape(t *testing.T)  { testExperiment(t, "e2") }
func TestE3Shape(t *testing.T)  { testExperiment(t, "e3") }
func TestE4Shape(t *testing.T)  { testExperiment(t, "e4") }
func TestE5Shape(t *testing.T)  { testExperiment(t, "e5") }
func TestE6Shape(t *testing.T)  { testExperiment(t, "e6") }
func TestE7Shape(t *testing.T)  { testExperiment(t, "e7") }
func TestE8Shape(t *testing.T)  { testExperiment(t, "e8") }
func TestE9Shape(t *testing.T)  { testExperiment(t, "e9") }
func TestE10Shape(t *testing.T) { testExperiment(t, "e10") }
func TestE11Shape(t *testing.T) { testExperiment(t, "e11") }
func TestE12Shape(t *testing.T) { testExperiment(t, "e12") }
func TestE13Shape(t *testing.T) { testExperiment(t, "e13") }
func TestE14Shape(t *testing.T) { testExperiment(t, "e14") }
func TestA1Shape(t *testing.T)  { testExperiment(t, "a1") }
func TestA2Shape(t *testing.T)  { testExperiment(t, "a2") }
func TestA3Shape(t *testing.T)  { testExperiment(t, "a3") }
func TestA4Shape(t *testing.T)  { testExperiment(t, "a4") }
func TestA5Shape(t *testing.T)  { testExperiment(t, "a5") }
func TestA6Shape(t *testing.T)  { testExperiment(t, "a6") }

func testExperiment(t *testing.T, name string) {
	var e Experiment
	for _, x := range Experiments {
		if x.Name == name {
			e = x
		}
	}
	if e.Run == nil {
		t.Fatalf("experiment %q is not registered", name)
	}
	if e.Virtual {
		// Host load cannot bend a virtual-time result, so these run in
		// parallel with each other once the wall-clock experiments, which
		// it can bend, have finished.
		t.Parallel()
	}
	r, err := e.Run(Smoke)
	if err != nil {
		t.Fatal(err)
	}
	gates := TestGates
	if race.Enabled {
		gates = RaceGates
	}
	if err := r.Check(gates); err != nil {
		t.Error(err)
	}
	if !e.Virtual {
		return
	}
	again, err := e.Run(Smoke)
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("two runs of a virtual-time experiment differ:\n%s\n%s", first, second)
	}
}

// TestEveryExperimentHasShapeTest keeps the registry and the shape tests in
// step: registering an experiment without a Test<Name>Shape here fails.
func TestEveryExperimentHasShapeTest(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "experiments_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		want := "Test" + strings.ToUpper(e.Name) + "Shape"
		if f.Scope.Lookup(want) == nil {
			t.Errorf("experiment %s has no %s", e.Name, want)
		}
	}
}

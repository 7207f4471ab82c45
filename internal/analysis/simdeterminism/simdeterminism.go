// Package simdeterminism forbids wall-clock, global-randomness and locking
// escape hatches in simulation-facing packages.
//
// The experiment tables are byte-identical across runs and worker counts
// only because every source of time and randomness flows from the kernel's
// virtual clock and per-simulation *rand.Rand instances. A single stray
// time.Now or global rand.Intn silently breaks that reproducibility, so
// this pass mechanically bans them where the simulation runs:
//
//   - functions of package time that read or wait on the wall clock
//     (Now, Since, Until, Sleep, After, AfterFunc, Tick, NewTimer,
//     NewTicker); time.Duration and the time constants remain fine;
//   - package-level functions of math/rand and math/rand/v2 that draw from
//     the shared global source (rand.Int, rand.Intn, rand.Float64, ...);
//     constructing private sources via rand.New/NewSource is the sanctioned
//     pattern and stays allowed;
//   - runtime.NumCPU and runtime.GOMAXPROCS, which read host CPU topology.
//     Sharded runs must produce identical tables for a fixed (seed,
//     shard-count) on any machine, so shard workers and the code they call
//     must never branch on how parallel the host happens to be. Picking a
//     shard count belongs in cmd mains (unchecked), not in the simulation;
//   - any use of the types sync.Mutex and sync.RWMutex. Simulation code
//     runs cooperatively, one goroutine per shard, so a lock there is at
//     best useless and at worst a frozen run: a proc that parks while
//     holding it keeps it, and whoever contends next blocks the goroutine
//     the scheduler needs. No lock at all implies no lock across a yield,
//     without a call graph. Every lock needs a variable of one of the two
//     types, so flagging the type flags the lock where it is declared.
//
// The real-network layer is exempt: files named real.go or *_real.go talk
// to actual sockets and legitimately use the wall clock, and packages not
// on the simulation-facing list (cmd mains, the analysis suite itself) are
// not checked at all. Individual lines opt out with
// `//lint:allow wallclock <reason>`, `//lint:allow globalrand <reason>`,
// `//lint:allow hostcpu <reason>` or `//lint:allow mutex <reason>`.
package simdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the simdeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock time, global math/rand, host-CPU probes and mutexes in simulation-facing packages",
	Keys: []string{"wallclock", "globalrand", "hostcpu", "mutex"},
	Run:  run,
}

// The simulation-facing package list lives in analysis.SimFacing, shared
// with the maprange pass.

// wallClockFuncs are the package-time functions that touch the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randConstructors are the math/rand functions that build private sources
// rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// hostCPUFuncs are the runtime functions that expose host CPU topology —
// exactly what a deterministic sharded run must not depend on.
var hostCPUFuncs = map[string]bool{
	"NumCPU": true, "GOMAXPROCS": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.SimFacing(pass.Pkg.Name()) {
		return nil
	}
	for _, file := range pass.Files {
		base := pass.Filename(file.Pos())
		if base == "real.go" || strings.HasSuffix(base, "_real.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := pass.TypesInfo.Uses[id].(type) {
			case *types.Func:
				check(pass, id, obj)
			case *types.TypeName:
				if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex") &&
					!pass.Allowed(id.Pos(), "mutex") {
					pass.Reportf(id.Pos(), "sync.%s in simulation-facing package %s: sim code runs cooperatively on one goroutine per shard, so a lock is useless at best and a frozen run if held across a yield (or annotate //lint:allow mutex)", obj.Name(), pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, id *ast.Ident, fn *types.Func) {
	if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn, Time.Add) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] && !pass.Allowed(id.Pos(), "wallclock") {
			pass.Reportf(id.Pos(), "time.%s reads the wall clock in simulation-facing package %s; use the kernel's virtual clock (or annotate //lint:allow wallclock)", fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] && !pass.Allowed(id.Pos(), "globalrand") {
			pass.Reportf(id.Pos(), "rand.%s draws from the process-global source in simulation-facing package %s; use a per-simulation *rand.Rand (or annotate //lint:allow globalrand)", fn.Name(), pass.Pkg.Name())
		}
	case "runtime":
		if hostCPUFuncs[fn.Name()] && !pass.Allowed(id.Pos(), "hostcpu") {
			pass.Reportf(id.Pos(), "runtime.%s reads host CPU topology in simulation-facing package %s; shard counts and results must not depend on host parallelism (or annotate //lint:allow hostcpu)", fn.Name(), pass.Pkg.Name())
		}
	}
}

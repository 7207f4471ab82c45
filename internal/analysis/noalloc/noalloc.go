// Package noalloc turns the repo's benchmark-proven 0-alloc claims into a
// static CI contract.
//
// A function annotated with a `//perf:noalloc` line in its doc comment
// promises that calling it allocates nothing on the heap in steady state —
// the PR 1 hot-path guarantee for the sim kernel's schedule/proc-switch
// loop, core.Database.Record, and the telemetry histograms. Benchmarks
// check that promise only for the inputs they happen to drive; this pass
// checks it for every path the compiler can see, by parsing the escape
// analysis the gc toolchain already performs: it runs
// `go build -gcflags=-m=1` on any package containing annotations and flags
// every "escapes to heap" / "moved to heap" line attributed inside an
// annotated function's body.
//
// Two escape classes are exempt:
//
//   - constant-string escapes (`"..." escapes to heap`): these are panic
//     messages — static data the compiler points an interface at, never a
//     per-call allocation;
//   - lines annotated `//lint:allow heapescape <reason>`: deliberate cold
//     paths, e.g. the event pool refilling when its free list is empty or
//     a series being created on first Record. The reason should say why
//     the steady state never takes the path.
//
// Because the gate reads real compiler output, it trips the moment anyone
// introduces a closure capture, a growing fmt call, or an interface
// conversion into an annotated function — no benchmark run needed. The
// build cache replays compile diagnostics, so a clean re-run costs no
// recompilation.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the noalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "enforce //perf:noalloc annotations against the compiler's escape analysis",
	Keys: []string{"heapescape"},
	Run:  run,
}

// Marker is the doc-comment annotation that opts a function into the gate.
const Marker = "//perf:noalloc"

// escapeOutput invokes the toolchain's escape analysis for the package in
// dir and returns its (combined) diagnostic output. Tests swap it to feed
// fixtures without a module context.
var escapeOutput = runCompiler

func runCompiler(dir string, isMain bool) ([]byte, error) {
	args := []string{"build", "-gcflags=-m=1"}
	if isMain {
		// A main package would drop its binary into the source dir.
		args = append(args, "-o", os.DevNull)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	return out, nil
}

// annotated is one //perf:noalloc function's extent.
type annotated struct {
	name     string
	file     string // basename
	from, to int    // body line range, inclusive
	pos      token.Pos
}

func run(pass *analysis.Pass) error {
	var fns []annotated
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) != Marker {
					continue
				}
				start := pass.Fset.Position(fd.Pos())
				end := pass.Fset.Position(fd.Body.Rbrace)
				fns = append(fns, annotated{
					name: fd.Name.Name,
					file: filepath.Base(start.Filename),
					from: start.Line,
					to:   end.Line,
					pos:  fd.Pos(),
				})
				break
			}
		}
	}
	if len(fns) == 0 {
		return nil
	}

	out, err := escapeOutput(pass.Dir, pass.Pkg.Name() == "main")
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	for _, esc := range parseEscapes(out) {
		fn := owner(fns, esc)
		if fn == nil {
			continue
		}
		dedup := fmt.Sprintf("%s:%d:%s", esc.file, esc.line, esc.msg)
		if seen[dedup] {
			continue // standalone + inlined copies report the same site twice
		}
		seen[dedup] = true
		pos := linePos(pass, esc.file, esc.line)
		if pos == token.NoPos {
			pos = fn.pos
		}
		if pass.Allowed(pos, "heapescape") {
			continue
		}
		pass.Reportf(pos, "heap escape in //perf:noalloc function %s: %s; keep the hot path allocation-free or annotate the cold path //lint:allow heapescape", fn.name, esc.msg)
	}
	return nil
}

// escape is one escape-analysis diagnostic.
type escape struct {
	file string // basename
	line int
	msg  string
}

var escapeLine = regexp.MustCompile(`^(.*\.go):(\d+):\d+: (.*)$`)

// parseEscapes extracts allocation-causing lines from -m output. Constant
// strings escaping (panic messages) are static data, not allocations, and
// are dropped here.
func parseEscapes(out []byte) []escape {
	var escs []escape
	for _, raw := range strings.Split(string(out), "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(raw))
		if m == nil {
			continue
		}
		msg := m[3]
		isEscape := strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap:")
		if !isEscape || strings.HasPrefix(msg, `"`) {
			continue
		}
		var line int
		fmt.Sscanf(m[2], "%d", &line)
		escs = append(escs, escape{file: filepath.Base(m[1]), line: line, msg: msg})
	}
	return escs
}

// owner finds the annotated function whose body spans the escape site.
func owner(fns []annotated, esc escape) *annotated {
	for i := range fns {
		fn := &fns[i]
		if fn.file == esc.file && esc.line >= fn.from && esc.line <= fn.to {
			return fn
		}
	}
	return nil
}

// linePos maps (file basename, line) back into the fileset, so diagnostics
// anchor to real positions and //lint:allow works line-scoped.
func linePos(pass *analysis.Pass, base string, line int) token.Pos {
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil || filepath.Base(tf.Name()) != base {
			continue
		}
		if line >= 1 && line <= tf.LineCount() {
			return tf.LineStart(line)
		}
	}
	return token.NoPos
}

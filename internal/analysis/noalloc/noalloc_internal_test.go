package noalloc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// SetEscapeOutputForTest replaces the compiler invocation and returns a
// restore function; declared here so only the external test package sees it.
func SetEscapeOutputForTest(f func(dir string, isMain bool) ([]byte, error)) (restore func()) {
	old := escapeOutput
	escapeOutput = f
	return func() { escapeOutput = old }
}

func TestParseEscapes(t *testing.T) {
	out := strings.Join([]string{
		"./k.go:10:6: can inline alloc",            // chatter: dropped
		"./k.go:12:11: new(int) escapes to heap",   // kept
		"./k.go:14:2: moved to heap: x",            // kept
		`./k.go:16:8: "panic msg" escapes to heap`, // constant string: dropped
		"./k.go:18:9: leaking param: fn",           // chatter: dropped
		"garbage line with no position",            // dropped
		"/abs/path/k.go:20:3: &y escapes to heap",  // kept, file reduced to basename
	}, "\n")
	escs := parseEscapes([]byte(out))
	if len(escs) != 3 {
		t.Fatalf("parseEscapes kept %d escapes, want 3: %+v", len(escs), escs)
	}
	want := []escape{
		{file: "k.go", line: 12, msg: "new(int) escapes to heap"},
		{file: "k.go", line: 14, msg: "moved to heap: x"},
		{file: "k.go", line: 20, msg: "&y escapes to heap"},
	}
	for i, w := range want {
		if escs[i] != w {
			t.Errorf("escape %d = %+v, want %+v", i, escs[i], w)
		}
	}
}

func TestOwner(t *testing.T) {
	fns := []annotated{
		{name: "a", file: "f.go", from: 10, to: 20},
		{name: "b", file: "f.go", from: 30, to: 40},
		{name: "c", file: "g.go", from: 10, to: 20},
	}
	for _, tc := range []struct {
		esc  escape
		want string
	}{
		{escape{file: "f.go", line: 15}, "a"},
		{escape{file: "f.go", line: 10}, "a"}, // inclusive bounds
		{escape{file: "f.go", line: 40}, "b"},
		{escape{file: "g.go", line: 15}, "c"},
		{escape{file: "f.go", line: 25}, ""}, // between functions
		{escape{file: "h.go", line: 15}, ""}, // other file
	} {
		got := ""
		if fn := owner(fns, tc.esc); fn != nil {
			got = fn.name
		}
		if got != tc.want {
			t.Errorf("owner(%+v) = %q, want %q", tc.esc, got, tc.want)
		}
	}
}

// TestRunCompilerRealEscape runs the actual toolchain's escape analysis on a
// throwaway module and checks we can see a known escape through it — the
// integration half of the gate that the fixture test fakes out.
func TestRunCompilerRealEscape(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	dir := t.TempDir()
	mod := "module tmpesc\n\ngo 1.21\n"
	src := `package tmpesc

var sink *int

func Leak() {
	p := new(int)
	sink = p
}
`
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(mod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "esc.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCompiler(dir, false)
	if err != nil {
		t.Fatalf("runCompiler: %v", err)
	}
	for _, esc := range parseEscapes(out) {
		if esc.file == "esc.go" && esc.line == 6 && strings.Contains(esc.msg, "escapes to heap") {
			return
		}
	}
	t.Fatalf("no escape reported at esc.go:6 in compiler output:\n%s", out)
}

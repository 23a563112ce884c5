// Command docscheck is the documentation gate wired into `make check`. It
// fails when:
//
//   - an exported identifier of the facade package (the repository root) or
//     of internal/metrics lacks a doc comment — these are the two packages
//     whose godoc is the public contract;
//   - docs/METRICS.md is out of sync with the metrics registry's
//     self-description: every registered instrument name must appear in the
//     document (as a backticked token), and every metric-shaped backticked
//     token in the document must name a registered instrument. The
//     registry is the source of truth; the document may not invent or omit
//     names.
//   - README.md and the flags of cmd/experiments, cmd/irsim and
//     cmd/flightstat disagree: every flag.Xxx("name", ...) declaration
//     must appear as a backticked `-name` token in the README, and every
//     flag a README flag-table row names in its first cell must be
//     declared by one of those commands, so the documented surface can
//     neither omit a flag nor keep a retired one;
//   - a `cmd/{…}`, `examples/{…}` or `internal/{…}` layout list in
//     README.md or DESIGN.md disagrees with the directories under cmd/,
//     examples/ or internal/: every listed name must be a directory, and
//     every directory must be listed, so the layout can neither keep a
//     deleted program nor omit a new one;
//   - a func or method outside the facade package has no non-test caller:
//     its name appears in no non-test .go file under the root (benchmark/
//     included; testdata/ and dot-directories skipped) except at a func
//     declaration, so only tests could run it. The match is by name: a
//     function whose name another identifier shares passes, so the rule
//     misses such dead code. allowUnused lists the exceptions, each with
//     its reason.
//
// Run from the repository root (as the Makefile does): paths are relative.
package main

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"iroram"
)

func main() {
	os.Exit(run())
}

func run() int {
	bad := 0
	for _, dir := range []string{".", "internal/metrics"} {
		n, err := auditPackageDocs(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			return 2
		}
		bad += n
	}
	n, err := auditMetricsDoc("docs/METRICS.md")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return 2
	}
	bad += n
	n, err = auditFlagsDoc("README.md", "cmd/experiments", "cmd/irsim", "cmd/flightstat")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return 2
	}
	bad += n
	n, err = auditLayout([]string{"README.md", "DESIGN.md"}, "cmd", "examples", "internal")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return 2
	}
	bad += n
	unused, err := unusedFuncs(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return 2
	}
	for _, u := range unused {
		fmt.Fprintf(os.Stderr, "docscheck: %s: %s has no non-test caller (delete it, or move it into a _test.go file)\n",
			u.pos, u.name)
	}
	bad += len(unused)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problems\n", bad)
		return 1
	}
	fmt.Println("docscheck: godoc coverage, docs/METRICS.md, README flags, layout lists and non-test callers ok")
	return 0
}

// auditPackageDocs parses the non-test files of dir and reports every
// exported declaration (package clause included) without a doc comment.
func auditPackageDocs(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	bad := 0
	complain := func(what string) {
		fmt.Fprintf(os.Stderr, "docscheck: %s: %s lacks a doc comment\n", dir, what)
		bad++
	}
	for _, pkg := range pkgs {
		d := doc.New(pkg, dir, 0)
		if strings.TrimSpace(d.Doc) == "" {
			complain("package " + d.Name)
		}
		for _, v := range append(append([]*doc.Value{}, d.Consts...), d.Vars...) {
			if strings.TrimSpace(v.Doc) == "" && hasExportedName(v.Names) {
				complain(strings.Join(exportedNames(v.Names), ", "))
			}
		}
		for _, t := range d.Types {
			if ast.IsExported(t.Name) && strings.TrimSpace(t.Doc) == "" {
				complain("type " + t.Name)
			}
			for _, m := range t.Methods {
				if ast.IsExported(m.Name) && strings.TrimSpace(m.Doc) == "" {
					complain("method " + t.Name + "." + m.Name)
				}
			}
			for _, f := range t.Funcs {
				if ast.IsExported(f.Name) && strings.TrimSpace(f.Doc) == "" {
					complain("func " + f.Name)
				}
			}
			for _, v := range append(append([]*doc.Value{}, t.Consts...), t.Vars...) {
				if strings.TrimSpace(v.Doc) == "" && hasExportedName(v.Names) {
					complain(strings.Join(exportedNames(v.Names), ", "))
				}
			}
		}
		for _, f := range d.Funcs {
			if ast.IsExported(f.Name) && strings.TrimSpace(f.Doc) == "" {
				complain("func " + f.Name)
			}
		}
	}
	return bad, nil
}

func hasExportedName(names []string) bool { return len(exportedNames(names)) > 0 }

func exportedNames(names []string) []string {
	var out []string
	for _, n := range names {
		if ast.IsExported(n) {
			out = append(out, n)
		}
	}
	return out
}

// metricToken matches backticked identifiers in docs/METRICS.md that look
// like registered instrument names (the five stable prefixes).
var metricToken = regexp.MustCompile("`((?:oram|sim|llc|dram|flight)_[a-z0-9_]+)`")

// auditMetricsDoc checks the two-way correspondence between docs/METRICS.md
// and the registry self-description of a live System.
func auditMetricsDoc(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("%s missing (the metrics schema reference is mandatory): %w", path, err)
	}
	text := string(data)

	registered := map[string]bool{}
	bad := 0
	for _, d := range iroram.MetricDescriptors() {
		registered[d.Name] = true
		if !strings.Contains(text, "`"+d.Name+"`") {
			fmt.Fprintf(os.Stderr, "docscheck: %s: registered metric %q (%s, %s) is undocumented\n",
				path, d.Name, d.Kind, d.Unit)
			bad++
		}
	}
	seen := map[string]bool{}
	for _, m := range metricToken.FindAllStringSubmatch(text, -1) {
		name := m[1]
		if seen[name] {
			continue
		}
		seen[name] = true
		if !registered[name] {
			fmt.Fprintf(os.Stderr, "docscheck: %s: documented metric %q is not registered (stale name?)\n",
				path, name)
			bad++
		}
	}
	return bad, nil
}

// flagDecl matches flag declarations in command sources — the user-facing
// flag surface README.md must document.
var flagDecl = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint64|Float64|Duration)\(\s*"([a-z][a-z0-9-]*)"`)

// flagRow matches the first cell of a README flag-table row: a table row
// that opens with a backticked flag, such as "| `-a` / `-b` | ...".
var flagRow = regexp.MustCompile("(?m)^\\|\\s*(`-[^|]*)\\|")

// flagToken matches each backticked flag within a flagRow cell.
var flagToken = regexp.MustCompile("`-([^`]*)`")

// auditFlagsDoc checks the README against the flags declared in the given
// command directories, both ways: every declared flag must appear as a
// backticked `-name` token somewhere in the README, and every flag named in
// the first cell of a flag-table row must be declared by one of the
// commands. Prose is not audited in the reverse direction: it may mention
// other tools' flags.
func auditFlagsDoc(readme string, dirs ...string) (int, error) {
	data, err := os.ReadFile(readme)
	if err != nil {
		return 0, fmt.Errorf("%s missing (the command reference is mandatory): %w", readme, err)
	}
	text := string(data)
	bad := 0
	declared := map[string]bool{}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			src, err := os.ReadFile(dir + "/" + e.Name())
			if err != nil {
				return 0, err
			}
			for _, m := range flagDecl.FindAllStringSubmatch(string(src), -1) {
				declared[m[1]] = true
				if !strings.Contains(text, "`-"+m[1]+"`") {
					fmt.Fprintf(os.Stderr, "docscheck: %s: flag -%s of %s is undocumented\n",
						readme, m[1], dir)
					bad++
				}
			}
		}
	}
	for _, row := range flagRow.FindAllStringSubmatch(text, -1) {
		for _, m := range flagToken.FindAllStringSubmatch(row[1], -1) {
			if !declared[m[1]] {
				fmt.Fprintf(os.Stderr, "docscheck: %s: flag table documents -%s, which no audited command declares\n",
					readme, m[1])
				bad++
			}
		}
	}
	return bad, nil
}

// layoutList matches a brace list of a layout block, such as
// "cmd/{irsim,experiments}"; a list may wrap across lines.
var layoutList = regexp.MustCompile(`(?m)^([a-z]+)/\{([^}]*)\}`)

// auditLayout checks the layout lists of each document against the
// subdirectories of each top-level dir, both ways: every name a dir's
// lists give must be a subdirectory, and every subdirectory must be
// listed. A document with no list for a dir fails too.
func auditLayout(docs []string, dirs ...string) (int, error) {
	bad := 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			return 0, err
		}
		lists := map[string][]string{}
		for _, m := range layoutList.FindAllStringSubmatch(string(data), -1) {
			for _, name := range strings.Split(m[2], ",") {
				lists[m[1]] = append(lists[m[1]], strings.TrimSpace(name))
			}
		}
		for _, dir := range dirs {
			entries, err := os.ReadDir(dir)
			if err != nil {
				return 0, err
			}
			names, ok := lists[dir]
			if !ok {
				fmt.Fprintf(os.Stderr, "docscheck: %s: no %s/{…} layout list\n", doc, dir)
				bad++
				continue
			}
			exists := map[string]bool{}
			for _, e := range entries {
				if !e.IsDir() {
					continue
				}
				exists[e.Name()] = true
				if !slices.Contains(names, e.Name()) {
					fmt.Fprintf(os.Stderr, "docscheck: %s: layout list omits %s/%s\n", doc, dir, e.Name())
					bad++
				}
			}
			for _, name := range names {
				if !exists[name] {
					fmt.Fprintf(os.Stderr, "docscheck: %s: layout list names %s/%s, which does not exist\n",
						doc, dir, name)
					bad++
				}
			}
		}
	}
	return bad, nil
}

// allowUnused lists the funcs and methods, as Recv.Name or Name, that
// unusedFuncs accepts without a non-test caller.
var allowUnused = map[string]bool{
	// The paper's §IV-C context-switch protocol. No figure or command runs
	// it; tests do, and it stays for the planned audit of every scheme's
	// bus view, whose context-switch leg needs it.
	"Controller.ContextSwitch": true,
	// Public methods of types the facade re-exports (iroram.Table,
	// iroram.System); example_test.go documents tab.Get. Without the entry
	// each passes only while an unrelated Get or Now (time.Now) exists.
	"Table.Get":  true,
	"System.Now": true,
}

// unusedFunc is one func or method unusedFuncs reports: where it is
// declared, and its name as Recv.Name or Name.
type unusedFunc struct {
	pos  token.Position
	name string
}

// unusedFuncs parses every non-test .go file under root, skipping
// testdata/ and dot-directories, and returns each func or method declared
// outside root's own package (the facade) whose name those files mention
// nowhere but at func declarations. main, init and the allowUnused names
// are exempt.
func unusedFuncs(root string) ([]unusedFunc, error) {
	root = filepath.Clean(root)
	fset := token.NewFileSet()
	var decls []unusedFunc
	mentioned := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			} else if name == "main" || name == "init" {
				continue
			}
			if filepath.Dir(path) != root && !allowUnused[name] {
				decls = append(decls, unusedFunc{fset.Position(fd.Pos()), name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				mentioned[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []unusedFunc
	for _, d := range decls {
		if !mentioned[d.name[strings.LastIndex(d.name, ".")+1:]] {
			out = append(out, d)
		}
	}
	return out, nil
}

// recvName returns T for a method receiver of type T or *T. No generic
// type here has methods, so a T[K] receiver yields "".
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

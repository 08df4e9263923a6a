// Command cdalint runs the repo's reliability-invariant analyzers
// (internal/analysis) over module packages and reports findings with
// file:line positions. It exits 1 when any finding survives the
// cdalint:ignore directives, so it can gate CI (scripts/check.sh).
// The rule set is whatever analysis.Analyzers() registers — run
// `cdalint -list` for the authoritative list with one-line docs; this
// comment deliberately names no rules so it cannot drift.
//
// Usage:
//
//	cdalint [flags] [pattern ...]
//
// Patterns are ./..., directory paths, or module-internal import
// paths; the default is ./... from the current directory's module.
//
// Flags:
//
//	-only a,b    run only the named analyzers
//	-list        print the available analyzers and exit
//	-werror      treat warnings as fatal (default true)
//	-format f    output format: text (default) or sarif
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/reliable-cda/cda/internal/analysis"
)

var (
	only   = flag.String("only", "", "comma-separated analyzer names to run (default all)")
	list   = flag.Bool("list", false, "list available analyzers and exit")
	werror = flag.Bool("werror", true, "exit nonzero on warnings too")
	format = flag.String("format", "text", "output format: text or sarif")
)

func main() {
	flag.Parse()
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-20s %s: %s\n", a.Name, a.Severity, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(analysis.Analyzers(), *only)
	if err != nil {
		fatalf("cdalint: %v", err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatalf("cdalint: %v", err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fatalf("cdalint: %v", err)
	}

	var pkgs []*analysis.Package
	for _, pat := range patterns {
		ps, err := loader.Load(pat)
		if err != nil {
			fatalf("cdalint: %v", err)
		}
		pkgs = append(pkgs, ps...)
	}

	findings := analysis.Run(pkgs, analyzers)
	bad := 0
	for i := range findings {
		f := &findings[i]
		if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = filepath.ToSlash(rel)
		}
		if f.Severity == analysis.SeverityError || *werror {
			bad++
		}
	}
	switch *format {
	case "text":
		for _, f := range findings {
			fmt.Println(f)
		}
	case "sarif":
		if err := writeSARIF(os.Stdout, findings); err != nil {
			fatalf("cdalint: encoding sarif: %v", err)
		}
	default:
		fatalf("cdalint: unknown -format %q (text, sarif)", *format)
	}
	if bad > 0 {
		fatalf("cdalint: %d finding(s) in %d package(s)", bad, len(pkgs))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

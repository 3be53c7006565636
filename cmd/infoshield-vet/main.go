// Command infoshield-vet runs the project's custom static-analysis suite
// (internal/analysis) over every package of the module: determinism
// (maporder), MDL-cost comparison hygiene (floateq), dropped results
// (ctxerr), and pooled-memory escapes (scratchalias), the one analyzer
// built on the interprocedural fact layer. Copies of lock-bearing
// values are go vet's copylocks check, which `make vet` runs alongside.
// It is stdlib-only — the loader type-checks the module with go/parser
// and go/types, with no golang.org/x/tools dependency.
//
// Usage:
//
//	infoshield-vet [flags] [dir]
//
//	-json        machine-readable output
//	-sarif file  also write a SARIF 2.1.0 report to file
//	-list        print the analyzers and exit
//	-v           also print suppressed findings
//
// Findings are suppressed only by a justified //vet:allow (or, for
// maporder, //vet:ordered) comment at the offending line.
//
// Exit status: 0 when no unsuppressed finding exists; 1 when findings
// remain; 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"infoshield/internal/analysis"
)

type jsonReport struct {
	Module     string                `json:"module"`
	Findings   []analysis.Diagnostic `json:"findings"`
	Suppressed []analysis.Diagnostic `json:"suppressed,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	jsonFlag := flag.Bool("json", false, "emit findings as JSON")
	sarifFlag := flag.String("sarif", "", "also write a SARIF 2.1.0 report to this file")
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "also print suppressed findings")
	flag.Parse()

	if *listFlag {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	dir := "."
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: infoshield-vet [flags] [dir]")
		return 2
	}
	if flag.NArg() == 1 {
		dir = flag.Arg(0)
	}

	mod, err := analysis.LoadModule(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "infoshield-vet:", err)
		return 2
	}
	azs := analysis.Analyzers()
	findings, suppressed := analysis.Run(mod, azs)

	if *jsonFlag {
		if findings == nil {
			findings = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		report := jsonReport{Module: mod.Path, Findings: findings}
		if *verbose {
			report.Suppressed = suppressed
		}
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "infoshield-vet:", err)
			return 2
		}
	} else {
		for _, d := range findings {
			fmt.Println(d)
		}
		if *verbose {
			for _, d := range suppressed {
				fmt.Printf("%s (suppressed)\n", d)
			}
		}
		fmt.Fprintf(os.Stderr, "infoshield-vet: %d package(s), %d finding(s), %d suppressed\n",
			len(mod.Pkgs), len(findings), len(suppressed))
	}
	if *sarifFlag != "" {
		if err := analysis.WriteSARIF(*sarifFlag, azs, findings, suppressed); err != nil {
			fmt.Fprintln(os.Stderr, "infoshield-vet:", err)
			return 2
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

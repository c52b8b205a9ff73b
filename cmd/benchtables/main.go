// Command benchtables regenerates the paper's evaluation tables from this
// reproduction (experiment index in DESIGN.md):
//
//	benchtables -table 1        Table 1: use cases, generation runtime, memory
//	benchtables -table 2        Table 2: artefact LOC, old-gen vs GEN
//	benchtables -table rq1      RQ1: generation + verification + misuse scan
//	benchtables -table rq5      RQ5: study-task effort proxy
//	benchtables -table all      everything
//
// Serving performance (the cryptgend daemon and its cluster) is measured
// by the bench/ harness (`bash bench/run.sh`) and the node-kill test
// (`go test -v -run TestClusterNodeKill ./service`), not here.
//
// Runtime and memory come from repeated in-process runs (10 by default,
// matching the paper's methodology of averaging ten runs); memory is the
// per-run allocation delta, the closest analog of the paper's
// process-level memory sampling.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"cognicryptgen/analysis"
	"cognicryptgen/effort"
	"cognicryptgen/gen"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")
	table := flag.String("table", "all", "which table to print: 1, 2, rq1, rq5, all")
	runs := flag.Int("runs", 10, "runs per use case for Table 1 averaging")
	flag.Parse()

	switch *table {
	case "1":
		table1(*runs)
	case "2":
		table2()
	case "rq1":
		rq1()
	case "rq5":
		rq5()
	case "all":
		table1(*runs)
		fmt.Println()
		table2()
		fmt.Println()
		rq1()
		fmt.Println()
		rq5()
	default:
		log.Fatalf("unknown table %q", *table)
	}
}

func newGenerator(verify bool) *gen.Generator {
	g, err := gen.New(rules.MustLoad(), "", gen.Options{Verify: verify})
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// table1 reproduces Table 1: per use case, average generation runtime over
// n runs and allocation delta. The paper's columns (6.6–8.1 s, 2.5–66.6 MB
// inside Eclipse) are printed alongside for the paper-vs-measured record.
func table1(n int) {
	g := newGenerator(false)
	paper := map[int][2]float64{ // seconds, MB (paper Table 1)
		1: {7.0, 14.1}, 2: {6.7, 13.5}, 3: {7.1, 66.6}, 4: {6.8, 6.0},
		5: {6.7, 2.5}, 6: {6.6, 4.2}, 7: {6.9, 56.7}, 8: {6.8, 34.1},
		9: {8.1, 22.7}, 10: {7.5, 7.1}, 11: {6.7, 14.2},
	}
	fmt.Println("Table 1: Common Cryptographic Use Cases (this reproduction vs paper)")
	fmt.Printf("%-3s %-30s %12s %12s %10s %10s\n", "#", "Use Case", "runtime", "alloc/run", "paper[s]", "paper[MB]")
	for _, uc := range templates.UseCases {
		src, err := templates.Source(uc)
		if err != nil {
			log.Fatal(err)
		}
		// Warm-up run (template parse caches, stdlib importer).
		if _, err := g.GenerateFile(uc.File, src); err != nil {
			log.Fatalf("use case %d (%s): %v", uc.ID, uc.Name, err)
		}
		var total time.Duration
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := g.GenerateFile(uc.File, src); err != nil {
				log.Fatal(err)
			}
		}
		total = time.Since(start)
		runtime.ReadMemStats(&after)
		allocPerRun := float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / (1 << 20)
		p := paper[uc.ID]
		fmt.Printf("%-3d %-30s %12s %9.2f MB %9.1fs %8.1fMB\n",
			uc.ID, uc.Name, (total / time.Duration(n)).Round(time.Microsecond), allocPerRun, p[0], p[1])
	}
}

// table2 reproduces Table 2: artefact lines of code per use case.
func table2() {
	rows, err := effort.Table2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table 2: artefact LOC to implement the old-gen use cases (measured | paper)")
	fmt.Printf("%-3s %-30s %18s %18s\n", "#", "Use Case", "old-gen XSL+Clafer", "GEN template")
	for _, r := range rows {
		fmt.Printf("%-3d %-30s %7d+%-4d|%3d+%-4d %8d|%-4d\n",
			r.UseCase, r.Name, r.XSLLOC, r.ClaferLOC, r.PaperXSL, r.PaperClafer, r.TemplateLOC, r.PaperTemplate)
	}
	s := effort.Summarize(rows)
	fmt.Printf("average: old-gen %.0f (XSL %.0f + Clafer %.0f), GEN %.0f — ratio %.2f (paper: ~136+91 vs 60, ~0.26)\n",
		s.AvgOldTotal, s.AvgXSL, s.AvgClafer, s.AvgTemplate, s.Ratio)
}

// rq1 reproduces the RQ1 check: all eleven use cases generate, compile,
// and pass the rule-driven misuse analyzer.
func rq1() {
	g := newGenerator(true)
	an, err := analysis.New(rules.MustLoad(), "", analysis.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("RQ1: implementation of common use cases (generate + type-check + misuse scan)")
	ok := true
	for _, uc := range templates.UseCases {
		src, err := templates.Source(uc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := g.GenerateFile(uc.File, src)
		if err != nil {
			fmt.Printf("%-3d %-30s GENERATION FAILED: %v\n", uc.ID, uc.Name, err)
			ok = false
			continue
		}
		rep, err := an.AnalyzeSource(uc.File, res.Output)
		if err != nil {
			fmt.Printf("%-3d %-30s ANALYSIS FAILED: %v\n", uc.ID, uc.Name, err)
			ok = false
			continue
		}
		status := "compiles, 0 misuses"
		if len(rep.Findings) > 0 {
			status = fmt.Sprintf("%d MISUSES", len(rep.Findings))
			ok = false
		}
		fmt.Printf("%-3d %-30s %s (%d rules, %d assumptions)\n",
			uc.ID, uc.Name, status, countRules(res), len(rep.Assumptions))
	}
	if ok {
		fmt.Println("result: all 11 use cases implemented — matches the paper's RQ1")
	} else {
		fmt.Println("result: RQ1 FAILED")
		os.Exit(1)
	}
}

func countRules(res *gen.Result) int {
	n := 0
	for _, m := range res.Report.Methods {
		n += len(m.Rules)
	}
	return n
}

// rq5 prints the study-task effort proxy plus the paper's human-measured
// outcomes for context.
func rq5() {
	rows, err := effort.RQ5()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("RQ5 proxy: mechanical effort of the two study tasks per backend")
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	p := effort.PaperRQ5Values
	fmt.Println("paper (human study, 16 participants — reported, not re-measured):")
	fmt.Printf("  SUS: GEN %.1f vs old-gen %.1f; NPS: GEN %.1f vs old-gen %.1f\n", p.SUSGen, p.SUSOld, p.NPSGen, p.NPSOld)
	fmt.Printf("  completion time: encryption task %s; hashing task %s\n", p.EncryptionTaskGenDelta, p.HashingTaskGenDelta)
}

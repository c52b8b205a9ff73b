// Command cryptgen runs the CogniCryptGEN code generator:
//
//	cryptgen -usecase 3                    generate a built-in use case to stdout
//	cryptgen -template my_template.go      generate from a custom template
//	cryptgen -usecase 3 -o out.go          write the output to a file
//	cryptgen -usecase 3 -into ./pkg        generate into an existing package
//	cryptgen -list                         list the built-in use cases
//	cryptgen -usecase 3 -report            also print the generation report
//
// The generated file is gofmt-formatted and verified with go/types against
// the module before it is written.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cognicryptgen/gen"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cryptgen: ")
	useCase := flag.Int("usecase", 0, "built-in use case number (1-13, see -list)")
	templatePath := flag.String("template", "", "path to a custom template file")
	out := flag.String("o", "", "output file (default stdout)")
	into := flag.String("into", "", "generate into an existing Go package directory")
	pkg := flag.String("pkg", "", "override output package name")
	list := flag.Bool("list", false, "list built-in use cases")
	report := flag.Bool("report", false, "print the generation report to stderr")
	noVerify := flag.Bool("noverify", false, "skip go/types verification of the output")
	flag.Parse()

	if *list {
		for _, uc := range templates.All() {
			fmt.Printf("%2d  %-30s %s\n", uc.ID, uc.Name, uc.File)
		}
		return
	}

	var name, src string
	switch {
	case *templatePath != "":
		data, err := os.ReadFile(*templatePath)
		if err != nil {
			log.Fatal(err)
		}
		name, src = *templatePath, string(data)
	case *useCase != 0:
		uc, err := templates.ByID(*useCase)
		if err != nil {
			log.Fatal(err)
		}
		s, err := templates.Source(uc)
		if err != nil {
			log.Fatal(err)
		}
		name, src = uc.File, s
	default:
		log.Fatal("need -usecase N or -template FILE (try -list)")
	}

	g, err := gen.New(rules.MustLoad(), "", gen.Options{
		Verify:      !*noVerify,
		PackageName: *pkg,
	})
	if err != nil {
		log.Fatal(err)
	}
	var res *gen.Result
	if *into != "" {
		path, r, ierr := g.GenerateInto(*into, name, src)
		if ierr != nil {
			log.Fatal(ierr)
		}
		res = r
		fmt.Fprintf(os.Stderr, "cryptgen: wrote %s\n", path)
	} else {
		r, gerr := g.GenerateFile(name, src)
		if gerr != nil {
			log.Fatal(gerr)
		}
		res = r
	}
	if *report {
		fmt.Fprintf(os.Stderr, "template: %s (%s)\n", res.Report.Template, res.Report.Duration.Round(1000))
		for _, m := range res.Report.Methods {
			for _, r := range m.Rules {
				fmt.Fprintf(os.Stderr, "  %s / %-25s path=%v\n", m.Name, r.Rule, r.Path)
				for _, reso := range r.Resolutions {
					fmt.Fprintf(os.Stderr, "      %s\n", reso)
				}
			}
		}
		for _, a := range res.Report.Assumptions {
			fmt.Fprintf(os.Stderr, "  assumption: %s\n", a)
		}
		for _, p := range res.Report.PushedUp {
			fmt.Fprintf(os.Stderr, "  pushed up: %s\n", p)
		}
	}
	if *into != "" {
		return
	}
	if *out == "" {
		fmt.Print(res.Output)
		return
	}
	if err := os.WriteFile(*out, []byte(res.Output), 0o644); err != nil {
		log.Fatal(err)
	}
}

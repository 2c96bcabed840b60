package transform

import (
	"fmt"

	"repro/internal/lang"
)

// bootstrapFile is the generated entry point of a standalone module binary.
const bootstrapFile = `// Code generated by mhgen; DO NOT EDIT.
//
// This file binds the module to its participation runtime. The process
// joins the software bus named by MH_BUS_ADDR as instance MH_INSTANCE.
package main

import "repro/mhrt"

var mh = mhrt.MustFromEnv()

func main() {
	mhrt.Main(mh, mhModuleMain)
}
`

// moduleMainName is what the module's own main becomes in a standalone
// emission (the generated bootstrap owns func main).
const moduleMainName = "mhModuleMain"

// Standalone renders the instrumented module as a compilable package main:
// the module's main procedure is renamed to mhModuleMain and a bootstrap
// file supplies func main plus the runtime binding. The result compiles
// against repro/mhrt with no other dependencies.
//
// Frame names are unaffected: the woven mh.Capture/mh.Restore calls carry
// the original procedure name "main", and both sides of a state transfer
// are generated the same way. The renaming happens on the program parsed
// from the printed text, never on Prog, which every clone of a loaded
// module runs.
func (o *Output) Standalone() (map[string]string, error) {
	_, prog, err := o.text()
	if err != nil {
		return nil, fmt.Errorf("transform: standalone: %w", err)
	}
	mainFn, ok := prog.Funcs["main"]
	if !ok {
		return nil, fmt.Errorf("transform: standalone: no main procedure")
	}
	mainFn.Decl.Name.Name = moduleMainName
	for _, file := range prog.Files {
		file.Name.Name = "main"
	}
	files, err := lang.FormatProgram(prog, nil)
	if err != nil {
		return nil, fmt.Errorf("transform: standalone: %w", err)
	}
	if _, clash := files["mh_main.go"]; clash {
		return nil, fmt.Errorf("transform: standalone: module already has a file named mh_main.go")
	}
	files["mh_main.go"] = bootstrapFile
	return files, nil
}

// Command reconfigctl drives a running polybus application over its
// operator plane (polybus -control): a generic client of the one op table
// the application serves. Every op is a command, its parameters are the
// positional arguments, and the output is the op's human rendering — or
// the indented JSON document, for ops that have none.
//
//	reconfigctl -addr 127.0.0.1:7008 topology
//	reconfigctl -addr 127.0.0.1:7008 [-dry-run] move <inst> <new> <machine>
//	reconfigctl -addr 127.0.0.1:7008 trace [txid]
//	reconfigctl -addr 127.0.0.1:7008 watch [-interval 2s] [-count 1] [-windows 5]
//
// Run it without a command for the full list, generated from the table.
//
// The replacement-family commands (move, replace, update) run as a
// transaction on the application side: every step carries its
// compensating inverse, and a failure at any step rolls the system back
// to its pre-reconfiguration state. The transaction's step trace — and,
// on failure, the rollback report — is printed either way. With -dry-run
// the planned step sequence is printed without executing it.
//
// `watch` renders a per-instance table of the windowed telemetry,
// aggregated over the last -windows rolled windows; with -count 0 it
// refreshes every -interval until interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reconfigctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("reconfigctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7008", "operator plane address (polybus -control)")
	timeout := fs.Duration("timeout", 5*time.Second, "dial timeout")
	dryRun := fs.Bool("dry-run", false, "print the replacement plan without executing it (move/replace/update)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("no command; commands:\n%s", reconf.Usage())
	}
	c := reconf.NewClient(*addr, *timeout)
	c.Text = true
	cmd, params := rest[0], rest[1:]

	count := 1
	var interval time.Duration
	switch {
	case cmd == "watch":
		wfs := flag.NewFlagSet("watch", flag.ContinueOnError)
		wfs.DurationVar(&interval, "interval", 2*time.Second, "refresh interval between iterations")
		wfs.IntVar(&count, "count", 1, "iterations to print; <=0 repeats until interrupted")
		windows := wfs.Int("windows", 0, "rolled windows to aggregate per row (0 = server default)")
		if err := wfs.Parse(params); err != nil {
			return err
		}
		params = nil
		if *windows > 0 {
			params = []string{strconv.Itoa(*windows)}
		}
	case *dryRun && (cmd == "move" || cmd == "replace" || cmd == "update"):
		if cmd == "update" && len(params) == 3 {
			params = []string{params[0], params[1], "", params[2]} // update's third argument is the module
		}
		cmd = "plan"
	}
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
			fmt.Println()
		}
		out, err := c.Call(cmd, params...)
		fmt.Print(out) // the server ends every body with a newline
		if err != nil {
			return err
		}
	}
	return nil
}

// Selfheal: replicated module groups with crash-triggered self-healing.
//
// A `replicas 3` worker pool sits between a feeder and a collector. Mid-load
// one replica is crashed through a faultpoint; the supervisor marks it out
// of the routing group immediately (its fenced backlog drains to the
// survivors), then rebuilds it from the newest periodic abstract-state
// checkpoint on the same transaction engine as an operator-driven
// replacement. The pool returns to full strength with every message
// delivered exactly once.
//
//	go run ./examples/selfheal
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/codec"
	"repro/internal/faultinject"
	"repro/internal/mh"
	"repro/internal/state"
)

const spec = `
module feeder {
  source = "./feeder" ::
  define interface out pattern = {integer} ::
}

module worker {
  source = "./worker" ::
  use interface in pattern = {integer} ::
  define interface out pattern = {integer} ::
}

module collector {
  source = "./collector" ::
  use interface in pattern = {integer} ::
}

module app {
  instance worker as pool replicas 3 policy roundrobin
  instance feeder
  instance collector
  bind "feeder out" "pool in"
  bind "pool out" "collector in"
}
`

const messages = 200

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "selfheal:", err)
		os.Exit(1)
	}
}

func run() error {
	faults := faultinject.New()

	// The worker is a native module: it forwards each integer and keeps a
	// processed counter as its abstract state. The faultpoint at loop top is
	// its crash switch; a clone rebuilds the counter from the checkpoint.
	worker := func(rt *mh.Runtime) {
		rt.Init()
		var processed, loc int
		if rt.Status() == "clone" {
			rt.Decode()
			rt.Restore("main", "", &loc, &processed)
			rt.FinishRestore()
			fmt.Printf("  %s restored from checkpoint (processed=%d)\n", rt.Name(), processed)
		}
		rt.RegisterSnapshot(func() (*state.State, error) {
			st := state.New(rt.Name())
			st.PushFrame(state.Frame{Func: "main", Location: 1,
				Vars: []state.Var{{Name: "processed", Value: state.IntValue(int64(processed))}}})
			return st, nil
		})
		for {
			if faults.Fire("replica.crash."+rt.Name()) != nil {
				fmt.Printf("  %s crashed\n", rt.Name())
				return
			}
			if rt.QueryIfMsgs("in") {
				var n int
				rt.Read("in", &n)
				processed++
				rt.Write("out", n)
			} else {
				rt.Sleep(1)
			}
		}
	}

	app, err := reconf.Load(reconf.Config{
		SpecText: spec,
		Native: map[string]reconf.NativeModule{
			"worker":    worker,
			"feeder":    func(rt *mh.Runtime) {},
			"collector": func(rt *mh.Runtime) {},
		},
		SleepUnit:          time.Microsecond,
		CheckpointInterval: 8,
		SupervisorPoll:     2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer app.Stop()
	app.Bus().SetFaults(faults)

	for i := 1; i <= 3; i++ {
		if err := app.Launch(fmt.Sprintf("pool.%d", i)); err != nil {
			return err
		}
	}
	sup := app.Supervisor("pool")
	sup.Start()
	fmt.Println("worker pool: 3 replicas, policy roundrobin")

	feeder, err := app.AttachDriver("feeder")
	if err != nil {
		return err
	}
	coll, err := app.AttachDriver("collector")
	if err != nil {
		return err
	}
	c := codec.Default()

	received := make(chan int, messages)
	go func() { //archlint:spawn example collector drain; exits when the collector port closes or all ids arrive
		for i := 0; i < messages; i++ {
			m, err := coll.Read("in")
			if err != nil {
				return
			}
			v, err := c.DecodeValue(m.Data)
			if err != nil {
				return
			}
			received <- int(v.Int)
		}
	}()

	for i := 0; i < messages; i++ {
		if i == messages/3 {
			fmt.Println("killing pool.2 under load")
			faults.Enable("replica.crash.pool.2", faultinject.Point{Action: faultinject.Error, Count: 1})
		}
		data, err := c.EncodeValue(state.IntValue(int64(i)))
		if err != nil {
			return err
		}
		if err := feeder.Write("out", data); err != nil {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Wait for the heal to commit, then for every message to arrive.
	deadline := time.Now().Add(10 * time.Second)
	for sup.Stats().Recovered == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("supervisor did not recover the killed replica (stats %+v)", sup.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	seen := map[int]bool{}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for len(seen) < messages {
		select {
		case id := <-received:
			if seen[id] {
				return fmt.Errorf("message %d delivered twice", id)
			}
			seen[id] = true
		case <-timeout.C:
			return fmt.Errorf("lost %d of %d messages", messages-len(seen), messages)
		}
	}

	st := sup.Status()
	names := make([]string, 0, len(st.Members))
	for _, m := range st.Members {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	fmt.Printf("healed: members %v (detected %d, recovered %d)\n",
		names, st.Stats.Detected, st.Stats.Recovered)
	fmt.Printf("zero messages lost: %d/%d delivered exactly once\n", len(seen), messages)

	fmt.Println("\nselfheal transaction trace:")
	for _, line := range app.Trace() {
		fmt.Println(" ", line)
	}
	return nil
}

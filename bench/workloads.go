package main

import (
	"fmt"
	"runtime"
	"strings"
)

// workload is one set of inputs and one configuration of the system under
// test. Every workload runs the same trial (set-up, ping, stream, replace);
// they differ in exactly one factor each, so a difference between two of
// them is that factor.
type workload struct {
	name string
	why  string

	fanin      bool // bare bus, P producers into one endpoint; no App
	observed   bool // every observability switch an operator has, on
	wire       bool // source and sink attach over loopback TCP
	stackDepth int  // recursion depth under the stage's loop (0 = loop in main)

	warmup       int64 // messages of warm-up, part of set-up
	streamWindow int   // messages in flight in the stream and replace phases
	streamChunk  int   // messages per credit token (and per SendBatch on the wire)
}

// deepStack is the recursion depth of migrate_deep_stack: with main's frame
// every Move captures, ships and re-issues deepStack+1 activation records.
const deepStack = 128

// bus_fanin comes last: it saturates both CPUs, and on the builder's VM the
// run that follows a minute of it reads 15-40 % low for about half a minute.
var workloads = []workload{
	{
		name: "observed_stream", observed: true,
		why:    "in-process pipeline with trace sampling, record ring, 100ms timeseries and event log all on: the only workload where the observability rings sit on the message path",
		warmup: 20000, streamWindow: 64, streamChunk: 1,
	},
	{
		name: "wire_stream", wire: true,
		why:    "same pipeline, source and sink attached over loopback TCP: gob frames and syscalls dominate, single Write for latency and SendBatch(16) for throughput",
		warmup: 3008, streamWindow: 64, streamChunk: 16,
	},
	{
		name:   "replace_under_load",
		why:    "in-process pipeline, default config, stack depth 1: the plain mh+interp path, and a Move that is all coordinator, rebind, queue move and clone launch",
		warmup: 20000, streamWindow: 64, streamChunk: 1,
	},
	{
		name: "migrate_deep_stack", stackDepth: deepStack,
		why:    "as replace_under_load but the stage loops under a 128-deep recursion, so every Move captures, encodes, ships and re-issues 129 activation records (claim C5)",
		warmup: 20000, streamWindow: 64, streamChunk: 1,
	},
	{
		name: "bus_fanin", fanin: true,
		why:    "P producers into one endpoint on a bare bus: routing snapshot, MPSC ring CAS and reader wake alone, the contended fan-in path",
		warmup: 200000, streamWindow: 1024, streamChunk: 32,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// faninProducers is the number of senders in bus_fanin's stream and replace
// phases: min(GOMAXPROCS, 4), at least 2.
func faninProducers() int {
	p := runtime.GOMAXPROCS(0)
	if p > 4 {
		p = 4
	}
	if p < 2 {
		p = 2
	}
	return p
}

// pipelineSpec is the configuration specification of the three-module
// pipeline: driver source -> interpreted, transformed stage -> driver sink.
const pipelineSpec = `
module source {
  source = "./source" ::
  define interface out pattern = {integer} ::
}

module stage {
  source = "./stage" ::
  use interface in pattern = {integer} ::
  define interface out pattern = {integer, integer} ::
  reconfiguration point = {R} ::
}

module sink {
  source = "./sink" ::
  use interface in pattern = {integer, integer} ::
}

module pipeline {
  instance source
  instance stage on "machineA"
  instance sink
  bind "source out" "stage in"
  bind "stage out" "sink in"
}
`

// flatStageSource is the stage with its loop in main: one activation record.
// It emits 3x+1 and a running count; count is captured state, so the oracle
// sees whether a Move really carried it.
const flatStageSource = `package stage

func main() {
	var x int
	var count int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		count = count + 1
		mh.Write("out", 3*x+1, count)
	}
}
`

// deepStageSource runs the same loop at the bottom of a recursion of the
// given depth, three locals per frame, so only stack depth differs from
// flatStageSource.
func deepStageSource(depth int) string {
	return fmt.Sprintf(`package stage

func main() {
	mh.Init()
	hold(%d, 0)
}

func hold(n int, acc int) int {
	var a int
	var b int
	var c int
	a = n * 2
	b = acc + n
	c = a + b
	if n > 0 {
		acc = hold(n-1, acc+a)
		return acc + b + c
	}
	var x int
	var count int
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		count = count + 1
		mh.Write("out", 3*x+1, count)
	}
	return c
}
`, depth)
}

func (w workload) stageSource() string {
	if w.stackDepth > 0 {
		return deepStageSource(w.stackDepth)
	}
	return flatStageSource
}

package main

import (
	"fmt"
	"os"
	"time"

	"ftrouting"
)

// stand is one workload's system under test: its scheme, the scheme's
// files, and the daemon serving them.
type stand struct {
	wl       *workload
	g        *ftrouting.Graph
	scheme   any
	manifest *ftrouting.Manifest
	budget   int64 // resident shard budget in bytes; 0 for monolithic
	bytes    int64 // scheme file size
	d        *daemon
	// setup is the wall time from the start of the build until the
	// daemon's first healthz answer.
	setup time.Duration
}

// setUp builds the workload's scheme in-process, saves it (and shards
// it) under work, and starts a daemon on it. With a tracer it records
// one span per step.
func setUp(wl *workload, work, bin string, tr *tracer) (*stand, error) {
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	st := &stand{wl: wl}
	start := time.Now()
	root := tr.begin("setup", -1, 0)
	defer tr.end(root)

	sp := tr.begin("build", root, 0)
	st.g = wl.graph(schemeSeed)
	scheme, err := wl.build(st.g, schemeSeed)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", wl.name, err)
	}
	st.scheme = scheme

	sp = tr.begin("persist.save", root, 0)
	st.bytes, err = saveScheme(schemeFile(work), scheme)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in := schemeFile(work)
	if wl.shardBudget > 0 {
		sp = tr.begin("shard.save", root, 0)
		st.manifest, st.budget, err = shardScheme(wl, shardDir(work), scheme)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		in = shardDir(work)
	}

	sp = tr.begin("daemon.start", root, 0)
	st.d, err = startDaemon(bin, daemonArgs(in, st.budget))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	st.setup = time.Since(start)
	return st, nil
}

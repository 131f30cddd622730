package main

// E18: sharded vs monolithic serving. A manifest + per-component shards
// replaces one resident scheme with a directory plus lazily loaded
// shards, so a replica's memory is bounded by the shards its traffic
// touches — the table reports resident bytes per shard, cold-shard load
// latency, and warm served q/s of a sharded server against the
// monolithic server over the same scheme. The closing check is the
// regression guard of the refactor: once shards are warm, the shard
// router's split/merge must cost almost nothing (within 10% of
// monolithic throughput).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"ftrouting"
	"ftrouting/internal/experiments"
	"ftrouting/serve"
	"ftrouting/serve/api"
)

const (
	e18Islands    = 6
	e18IslandN    = 96
	e18Extra      = 160
	e18Requests   = 100
	e18Reps       = 7
	e18PairsPer   = 16
	e18Tolerance  = 0.10
	e18FaultCount = 8
)

// postQuery posts one batch and fails on any non-200. It drains the
// response body without decoding it, so the timed loops of E18 and E19
// measure the server, not a client-side decode, and every request reuses
// one keep-alive connection.
func postQuery(client *http.Client, url string, req api.QueryRequest) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, body)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func shardThroughput(seed uint64) *experiments.Table {
	t := &experiments.Table{
		ID:     "E18",
		Title:  "sharded vs monolithic serving (conn scheme over disjoint islands)",
		Paper:  "per-component label tagging (Section 3) makes scheme files losslessly splittable per component",
		Header: []string{"mode", "shards", "resident KB", "cold load ms", "warm q/s", "vs monolithic"},
	}
	fail := func(err error) *experiments.Table {
		t.Notes = append(t.Notes, "ERROR: "+err.Error())
		return t
	}
	g := ftrouting.Islands(e18Islands, e18IslandN, e18Extra, seed)
	conn, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: seed})
	if err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp("", "e18shards")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	m, err := ftrouting.SaveShardedConn(dir, conn, ftrouting.ShardOptions{})
	if err != nil {
		return fail(err)
	}

	// Cold-shard load latency and resident bytes, per shard.
	var loadTotal time.Duration
	var bytesTotal, bytesMax int64
	for id := 0; id < m.NumShards(); id++ {
		start := time.Now()
		if _, err := m.LoadShard(id); err != nil {
			return fail(err)
		}
		loadTotal += time.Since(start)
		b := m.ShardBytes(id)
		bytesTotal += b
		if b > bytesMax {
			bytesMax = b
		}
	}
	coldMs := loadTotal.Seconds() * 1000 / float64(m.NumShards())

	// Warm q/s: one repeated fault set per island-local batch, so every
	// request hits the prepared context and, for the sharded server, the
	// resident shard — measuring pure split/merge overhead.
	pairs := make([][2]int32, e18PairsPer)
	for i := range pairs {
		v := int32((i * 7) % e18IslandN)
		w := int32((i*13 + e18IslandN/2) % e18IslandN)
		island := int32(i % e18Islands)
		pairs[i] = [2]int32{island*e18IslandN + v, island*e18IslandN + w}
	}
	faults := ftrouting.RandomFaults(g, e18FaultCount, seed+9)
	measure := func(scheme any, manifest *ftrouting.Manifest) (float64, error) {
		var srv *serve.Server
		var err error
		if manifest != nil {
			srv, err = serve.NewSharded(manifest, serve.Options{Parallelism: 1})
		} else {
			srv, err = serve.New(scheme, serve.Options{Parallelism: 1})
		}
		if err != nil {
			return 0, err
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		url := ts.URL + "/v1/connected"
		client := ts.Client()
		req := api.QueryRequest{Pairs: pairs, Faults: faults}
		if err := postQuery(client, url, req); err != nil {
			return 0, err
		}
		runtime.GC() // level the allocator between the two servers
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < e18Reps; rep++ {
			start := time.Now()
			for i := 0; i < e18Requests; i++ {
				if err := postQuery(client, url, req); err != nil {
					return 0, err
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return float64(e18Requests*e18PairsPer) / best.Seconds(), nil
	}
	monoQPS, err := measure(conn, nil)
	if err != nil {
		return fail(err)
	}
	shardQPS, err := measure(nil, m)
	if err != nil {
		return fail(err)
	}

	t.AddRow("monolithic", "1 file", fmt.Sprintf("%.1f", float64(bytesTotal)/1024), "-",
		fmt.Sprintf("%.0f", monoQPS), "1.00x")
	t.AddRow("sharded (warm)", fmt.Sprintf("%d", m.NumShards()),
		fmt.Sprintf("%.1f max/shard", float64(bytesMax)/1024),
		fmt.Sprintf("%.2f", coldMs),
		fmt.Sprintf("%.0f", shardQPS), fmt.Sprintf("%.2fx", shardQPS/monoQPS))

	ratio := shardQPS / monoQPS
	verdict := "PASS"
	if ratio < 1-e18Tolerance {
		verdict = "FAIL"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("check: warm sharded q/s within %.0f%% of monolithic — %.2fx: %s",
			e18Tolerance*100, ratio, verdict),
		"cold load ms = mean wall time of LoadShard (decode + seed-driven label rebuild), paid once per shard residency",
		"resident cost unit = shard file bytes (what the sharded serve -shard-budget LRU accounts)")
	return t
}

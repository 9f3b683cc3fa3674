package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bellflower"
)

func TestParseShardOf(t *testing.T) {
	if idx, n, err := parseShardOf("2/5"); err != nil || idx != 2 || n != 5 {
		t.Errorf("parseShardOf(2/5) = %d,%d,%v", idx, n, err)
	}
	for _, bad := range []string{"", "x", "3", "5/2", "2/2", "-1/2", "1/0", "1/2/4", "0/2x", "x0/2", "0 /2"} {
		if _, _, err := parseShardOf(bad); err == nil {
			t.Errorf("parseShardOf(%q) accepted", bad)
		}
	}
}

func TestSplitShardAddrs(t *testing.T) {
	got, err := splitShardAddrs("a:1, b:2 ,c:3")
	if err != nil || len(got) != 3 || got[1] != "b:2" {
		t.Errorf("splitShardAddrs = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a:1,", ",a:1", "a:1,,b:2", " , "} {
		if _, err := splitShardAddrs(bad); err == nil {
			t.Errorf("splitShardAddrs(%q) accepted an empty entry", bad)
		}
	}
}

// TestShardModeRoutes: the -shard-of surface serves the wire protocol,
// liveness and metrics — and does NOT serve the public matching API.
func TestShardModeRoutes(t *testing.T) {
	repo, err := bellflower.Synthetic(syntheticCfg(600, 3))
	if err != nil {
		t.Fatal(err)
	}
	host, err := bellflower.NewShardHost(repo, 0, 2, bellflower.ServiceConfig{Workers: 1}, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	srv := httptest.NewServer(shardRoutes(host, nil, slog.New(slog.NewJSONHandler(io.Discard, nil))))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	var hz map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil || hz["mode"] != "shard" {
		t.Errorf("healthz body = %v (%v), want mode=shard", hz, err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/shard/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("shard stats: %v %v", resp, err)
	}
	var st struct {
		Descriptor struct {
			Shard     int `json:"shard"`
			NumShards int `json:"num_shards"`
		} `json:"descriptor"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Descriptor.NumShards != 2 {
		t.Errorf("shard stats descriptor = %+v (%v), want 0/2", st, err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %v", resp, err)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	if !strings.Contains(string(buf[:n]), "bellflower_requests_total") {
		t.Error("shard /metrics carries no bellflower series")
	}

	// The public API must be absent in shard mode.
	resp, err = http.Post(srv.URL+"/v1/match", "application/json", strings.NewReader(`{"personal":"a(b)"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("public /v1/match in shard mode: %d, want 404", resp.StatusCode)
	}
}

// TestOneGroupRouterStatsCarryReplicaHealth: a distributed router over ONE
// shard served by two replicas (-remote-shards "a|b") answers /v1/stats in
// the flat single-shard shape, and that shape carries the replica health
// /metrics already exports as bellflower_shard_healthy.
func TestOneGroupRouterStatsCarryReplicaHealth(t *testing.T) {
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	var addrs []string
	for i := 0; i < 2; i++ {
		repo, err := bellflower.Synthetic(syntheticCfg(600, 3))
		if err != nil {
			t.Fatal(err)
		}
		host, err := bellflower.NewShardHost(repo, 0, 1, bellflower.ServiceConfig{Workers: 1}, bellflower.PartitionClustered)
		if err != nil {
			t.Fatal(err)
		}
		defer host.Close()
		replica := httptest.NewServer(shardRoutes(host, nil, logger))
		defer replica.Close()
		addrs = append(addrs, replica.URL)
	}
	repo, err := bellflower.Synthetic(syntheticCfg(600, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := bellflower.ServiceConfig{Workers: 1, HealthInterval: -1}
	backend, err := bellflower.NewDistributedService(repo, []string{strings.Join(addrs, "|")}, cfg, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	router := newRemoteServer(backend, repo, "test", cfg, logger)
	defer router.closeNow()
	srv := httptest.NewServer(router.routes())
	defer srv.Close()

	var st struct {
		Requests *int64 `json:"requests"` // present only in the flat shape
		Replicas []struct {
			Addr    string `json:"addr"`
			Healthy bool   `json:"healthy"`
		} `json:"replicas"`
	}
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.Requests == nil {
		t.Fatal("/v1/stats of a one-shard router is not the flat shape")
	}
	if len(st.Replicas) != 2 {
		t.Fatalf("/v1/stats carries %d replicas entries, want 2: %+v", len(st.Replicas), st.Replicas)
	}
	_, metrics := getBody(t, srv.URL+"/metrics")
	for i, r := range st.Replicas {
		if r.Addr != addrs[i] || !r.Healthy {
			t.Errorf("replica %d = %+v, want healthy %s", i, r, addrs[i])
		}
		if want := fmt.Sprintf("bellflower_shard_healthy{shard=\"0\",replica=%q} 1", r.Addr); !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestRunFlagValidation: the distributed-role flag combinations that can
// only be misconfigurations are rejected before any listener starts.
func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-synthetic", "100", "-shard-of", "0/2", "-remote-shards", "x:1"},
		{"-synthetic", "100", "-shard-of", "0/2", "-shards", "3"},
		{"-synthetic", "100", "-remote-shards", "x:1", "-shards", "2"},
		{"-synthetic", "100", "-shard-of", "0/2", "-data-dir", t.TempDir()},
		{"-synthetic", "100", "-remote-shards", "x:1", "-data-dir", t.TempDir()},
		{"-synthetic", "100", "-shard-of", "9/2"},
		{"-synthetic", "100", "-wire-codec", "gzip"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted an invalid flag combination", args)
		}
	}
	// The JSON shard codec is gone; asking for it must say so instead of
	// starting a daemon that would speak binary anyway.
	err := run([]string{"-synthetic", "100", "-shard-of", "0/2", "-wire-codec", "json"})
	if err == nil || !strings.Contains(err.Error(), "retired") {
		t.Errorf("-wire-codec json: err = %v, want a start-up error naming the retirement", err)
	}
}

func syntheticCfg(nodes int, seed int64) bellflower.SyntheticConfig {
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes = nodes
	cfg.Seed = seed
	return cfg
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workloadSizes documents each workload's fixed scale for the
// environment record.
var workloadSizes = map[string]map[string]int{
	"read-mix": {"landmarks": readMixLandmarks, "hosts": readMixHosts, "dim": readMixDim, "callers": readMixCallers, "batch_targets": readMixBatch, "knn_k": readMixK},
	"ingest":   {"landmarks": ingestLandmarks, "hosts": ingestHosts, "dim": ingestDim, "callers": ingestCallers, "followers": 1},
	"gossip":   {"peers": gossipPeers, "dim": gossipDim, "max_neighbors": gossipNeighbors, "scored_rounds": gossipRounds, "callers": 1},
}

// printEnv prints the environment record: what ran, where and at which
// scale, so results from different machines and commits compare like
// with like.
func printEnv(cfg runConfig) {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"source":     sourceDigest(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"sizes":      workloadSizes[cfg.workload],
	}
	b, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Printf("env %s\n", b)
}

// sourceDigest hashes the repository's Go sources and go.mod. The
// benchmark runs from a plain export of the tree, not a git work tree,
// so this digest stands in for the commit: it identifies the code a
// result measured.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries only weaken the digest
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", path)
		_, _ = io.Copy(h, f) // a short read only weakens the digest
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the CPU model name on Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

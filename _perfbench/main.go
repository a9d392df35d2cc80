// Command perfbench is the repository's benchmark: it serves trained
// three-tier CNN cascades through serve.Runtime, checks every decision
// against a single-threaded reference replay, and prints end-to-end
// metrics (or, with --trace 1, per-layer metrics) as one JSON line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	sh _perfbench/run.sh --workload ward_f32 --seed 1 --seconds 10 --trace 0
//
// manifest.json describes the workloads, the metrics and the layer
// each per-layer metric belongs to, the fixed cascade bundle, and the
// stage-sum slack.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// benchDir is the benchmark's directory, relative to the repository
// root the benchmark runs from.
const benchDir = "_perfbench"

func main() {
	os.Exit(run())
}

func run() int {
	wname := flag.String("workload", "", "workload: ward_f64, ward_f32 or chaos_f32")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*wname)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	var m manifest
	if err == nil {
		m, err = readManifest(benchDir)
	}
	var img []byte
	if err == nil {
		img, err = readBundle(benchDir, m.Bundle.File, m.Bundle.SHA256)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d %s\n",
		w.name, *seed, *seconds, *trace, machineFacts())
	res, err := bench(w, m, img, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// manifest is the part of manifest.json the benchmark reads.
type manifest struct {
	Bundle struct {
		File   string `json:"file"`
		SHA256 string `json:"sha256"`
	} `json:"bundle"`
	StageSum struct {
		Slack float64 `json:"slack"`
	} `json:"stage_sum"`
}

func readManifest(dir string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("manifest.json: %w", err)
	}
	if m.Bundle.File == "" || len(m.Bundle.SHA256) != 64 || m.StageSum.Slack <= 0 {
		return m, fmt.Errorf("manifest.json: bundle file, sha256 and stage_sum.slack are required")
	}
	return m, nil
}

// readBundle reads the cascade bundle and refuses it unless its
// SHA-256 is the one the manifest records, so every run scores the
// same weights.
func readBundle(dir, file, want string) ([]byte, error) {
	img, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(img)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("%s has sha256 %s, manifest.json records %s", file, got, want)
	}
	return img, nil
}

// machineFacts describes the host a run measured.
func machineFacts() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

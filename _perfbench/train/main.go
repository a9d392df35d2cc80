// Command train regenerates the benchmark's fixed cascade bundle: a
// primary three-branch CNN and an accelerometer-only fallback trained
// with falldet.TrainCascade on a small synthetic dataset at a fixed
// seed. The benchmark scores these exact weights on every commit and
// refuses a bundle whose SHA-256 differs from the one in
// manifest.json, so regenerate only when the training code changes
// on purpose, and update the manifest with the digest printed here.
//
//	cd _perfbench && go run ./train -out cascade.bundle
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/falldet"
)

// The training recipe recorded in manifest.json.
var (
	synthCfg = falldet.SynthConfig{
		WorksiteSubjects: 6,
		KFallSubjects:    6,
		LongTaskSeconds:  5,
		Seed:             11,
	}
	trainCfg = falldet.Config{
		WindowMS: 400,
		Overlap:  0.5,
		Epochs:   30,
		Patience: 6,
		Seed:     11,
		Workers:  2,
	}
)

func main() {
	out := flag.String("out", "cascade.bundle", "where to write the bundle")
	flag.Parse()
	start := time.Now()
	d, err := falldet.Synthesize(synthCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
	cd, err := falldet.TrainCascade(d, falldet.KindCNN, trainCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
	var buf bytes.Buffer
	if err := cd.Save(&buf); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
	sum := sha256.Sum256(buf.Bytes())
	fmt.Printf("wrote %s: %d bytes, sha256 %s, trained in %.1fs\n",
		*out, buf.Len(), hex.EncodeToString(sum[:]), time.Since(start).Seconds())
}

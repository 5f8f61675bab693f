package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mpcdvfs/internal/predict"
)

// fixtureJSON records the served forest's provenance and the SHA-256
// of its bytes. Both sides of an A/B must load exactly these bytes.
//
//go:embed fixture.json
var fixtureJSON []byte

// fixtureSpec is the part of fixture.json the benchmark checks; the
// rest is provenance for readers.
type fixtureSpec struct {
	Seed       int64   `json:"seed"`
	Kernels    int     `json:"kernels"`
	NoiseFrac  float64 `json:"noise_frac"`
	Trees      int     `json:"trees"`
	TimeNodes  int     `json:"time_forest_nodes"`
	PowerNodes int     `json:"power_forest_nodes"`
	SHA256     string  `json:"sha256"`
}

func loadFixtureSpec() (fixtureSpec, error) {
	var s fixtureSpec
	if err := json.Unmarshal(fixtureJSON, &s); err != nil {
		return s, fmt.Errorf("fixture.json: %w", err)
	}
	return s, nil
}

// ensureFixture returns the path of the fixture model under dir,
// training and writing it first when it is missing. Training is what
// cmd/train does with its defaults; it takes tens of seconds and runs
// outside every timed section and outside setup_s. A fixture whose
// bytes do not hash to the recorded SHA-256 is refused.
func ensureFixture(dir string, spec fixtureSpec) (string, error) {
	path := filepath.Join(dir, "model-"+spec.SHA256[:16]+".bin")
	if data, err := os.ReadFile(path); err == nil {
		if err := checkFixture(data, spec); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		return path, nil
	}
	logf("fixture: training the served forest (seed %d, %d kernels); this happens once per checkout", spec.Seed, spec.Kernels)
	opt := predict.DefaultTrainOptions(spec.Seed)
	if opt.NumKernels != spec.Kernels || opt.NoiseFrac != spec.NoiseFrac {
		return "", fmt.Errorf("fixture: predict.DefaultTrainOptions now trains %d kernels at noise %g; fixture.json records %d at %g",
			opt.NumKernels, opt.NoiseFrac, spec.Kernels, spec.NoiseFrac)
	}
	model, err := predict.TrainRandomForest(opt)
	if err != nil {
		return "", fmt.Errorf("fixture: train: %w", err)
	}
	var buf bytes.Buffer
	if err := predict.SaveModel(&buf, model); err != nil {
		return "", fmt.Errorf("fixture: %w", err)
	}
	if err := checkFixture(buf.Bytes(), spec); err != nil {
		return "", fmt.Errorf("fixture: freshly trained forest: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}

// checkFixture refuses bytes that are not the recorded fixture.
func checkFixture(data []byte, spec fixtureSpec) error {
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != spec.SHA256 {
		return fmt.Errorf("fixture SHA-256 is %s, fixture.json records %s: this tree does not produce or hold the benchmark's forest, so its numbers would not compare", got, spec.SHA256)
	}
	return nil
}

// loadFixture reads, verifies and decodes the fixture, compiling both
// forests, and checks the compiled node pools against the record.
func loadFixture(path string, spec fixtureSpec) (*predict.RandomForest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := checkFixture(data, spec); err != nil {
		return nil, err
	}
	model, err := predict.LoadModel(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	tc, pc := model.CompiledForests()
	if tc == nil || pc == nil {
		return nil, fmt.Errorf("fixture: forests did not compile")
	}
	if tc.NumTrees() != spec.Trees || pc.NumTrees() != spec.Trees ||
		tc.NumNodes() != spec.TimeNodes || pc.NumNodes() != spec.PowerNodes {
		return nil, fmt.Errorf("fixture: compiled %d+%d trees with %d+%d nodes, fixture.json records %d trees with %d+%d nodes",
			tc.NumTrees(), pc.NumTrees(), tc.NumNodes(), pc.NumNodes(), spec.Trees, spec.TimeNodes, spec.PowerNodes)
	}
	return model, nil
}

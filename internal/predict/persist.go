package predict

import (
	"encoding/gob"
	"fmt"
	"io"

	"mpcdvfs/internal/rf"
)

// modelFile is the serialized form of a trained RandomForest predictor:
// the offline-trained artifact the paper's system-level software ships
// to the runtime (§IV-A3).
type modelFile struct {
	Magic       string
	TimeForest  *rf.Forest
	PowerForest *rf.Forest
}

const modelMagic = "mpcdvfs-rf-v1"

// SaveModel writes a predictor from TrainRandomForest to w. It needs
// the tree form, so it fails on a model from LoadModel or
// TrainOnSamples.
func SaveModel(w io.Writer, m *RandomForest) error {
	if m == nil || m.timeForest == nil {
		return errNoTrees
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(modelFile{Magic: modelMagic, TimeForest: m.timeForest, PowerForest: m.powerForest}); err != nil {
		return fmt.Errorf("predict: save model: %w", err)
	}
	return nil
}

// LoadModel reads a predictor previously written by SaveModel, for
// serving: it compiles both forests and drops their tree form, so the
// model cannot be saved or asked for feature importance.
func LoadModel(r io.Reader) (*RandomForest, error) {
	tf, pf, err := ReadForests(r)
	if err != nil {
		return nil, err
	}
	return compileForests(tf, pf)
}

// ReadForests decodes the tree form of a model file written by
// SaveModel: the time forest and the power forest.
func ReadForests(r io.Reader) (timeForest, powerForest *rf.Forest, err error) {
	var f modelFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, nil, fmt.Errorf("predict: load model: %w", err)
	}
	if f.Magic != modelMagic {
		return nil, nil, fmt.Errorf("predict: not a model file (magic %q)", f.Magic)
	}
	return f.TimeForest, f.PowerForest, nil
}

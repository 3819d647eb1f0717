package soundboost

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"soundboost/internal/stats"
	"soundboost/internal/triage"
)

// analyzerFile is the serialised form of a fully-calibrated Analyzer:
// the trained model plus every detector's calibrated thresholds. Saving it
// lets the post-incident workflow skip recalibration (paper §III-D:
// parameters are tuned once per UAV model).
type analyzerFile struct {
	Model json.RawMessage `json:"model"`

	IMUCfg           IMUDetectorConfig `json:"imu_config"`
	IMUBenign        stats.Normal      `json:"imu_benign"`
	IMUStatThreshold float64           `json:"imu_stat_threshold"`
	IMUStdThreshold  float64           `json:"imu_std_threshold"`

	AudioOnlyCfg       GPSDetectorConfig `json:"audio_only_config"`
	AudioOnlyThreshold float64           `json:"audio_only_threshold"`
	AudioIMUCfg        GPSDetectorConfig `json:"audio_imu_config"`
	AudioIMUThreshold  float64           `json:"audio_imu_threshold"`

	// Triage is the optional screening tier in its own schema-versioned
	// format (triage/v1); absent in files written before the tier
	// existed, so older analyzers load unchanged with screening off.
	Triage json.RawMessage `json:"triage,omitempty"`
}

// Save writes the calibrated analyzer to w as JSON.
func (a *Analyzer) Save(w io.Writer) error {
	if a.Model == nil || a.IMU == nil || a.GPSAudioOnly == nil || a.GPSAudioIMU == nil {
		return fmt.Errorf("soundboost: cannot save partially-initialised analyzer")
	}
	var modelBuf bytes.Buffer
	if err := a.Model.Save(&modelBuf); err != nil {
		return err
	}
	var triageRaw json.RawMessage
	if a.Triage != nil {
		blob, err := json.Marshal(a.Triage)
		if err != nil {
			return fmt.Errorf("soundboost: save triage tier: %w", err)
		}
		triageRaw = blob
	}
	return json.NewEncoder(w).Encode(analyzerFile{
		Triage:             triageRaw,
		Model:              json.RawMessage(modelBuf.Bytes()),
		IMUCfg:             a.IMU.cfg,
		IMUBenign:          a.IMU.benign,
		IMUStatThreshold:   a.IMU.statThreshold,
		IMUStdThreshold:    a.IMU.stdThreshold,
		AudioOnlyCfg:       a.GPSAudioOnly.cfg,
		AudioOnlyThreshold: a.GPSAudioOnly.threshold,
		AudioIMUCfg:        a.GPSAudioIMU.cfg,
		AudioIMUThreshold:  a.GPSAudioIMU.threshold,
	})
}

// LoadAnalyzer reads an analyzer written by Save: the model and all
// calibrated thresholds are restored without needing benign flights.
func LoadAnalyzer(r io.Reader) (*Analyzer, error) {
	var af analyzerFile
	if err := json.NewDecoder(r).Decode(&af); err != nil {
		return nil, fmt.Errorf("soundboost: decode analyzer: %w", err)
	}
	model, err := LoadModel(bytes.NewReader(af.Model))
	if err != nil {
		return nil, err
	}
	if err := checkPrimaryIMU(af.IMUCfg); err != nil {
		return nil, err
	}
	if af.IMUBenign.Sigma <= 0 {
		return nil, fmt.Errorf("soundboost: analyzer file has degenerate benign sigma %g", af.IMUBenign.Sigma)
	}
	var tri *triage.Model
	if len(af.Triage) > 0 {
		tri = new(triage.Model)
		if err := json.Unmarshal(af.Triage, tri); err != nil {
			return nil, fmt.Errorf("soundboost: analyzer triage tier: %w", err)
		}
	}
	return &Analyzer{
		Triage: tri,
		Model:  model,
		IMU: &IMUDetector{
			cfg:           af.IMUCfg,
			model:         model,
			benign:        af.IMUBenign,
			statThreshold: af.IMUStatThreshold,
			stdThreshold:  af.IMUStdThreshold,
		},
		GPSAudioOnly: &GPSDetector{cfg: af.AudioOnlyCfg, model: model, threshold: af.AudioOnlyThreshold},
		GPSAudioIMU:  &GPSDetector{cfg: af.AudioIMUCfg, model: model, threshold: af.AudioIMUThreshold},
	}, nil
}

package soundboost

// AnalyzerOption configures NewAnalyzer's calibration.
type AnalyzerOption func(*analyzerOptions)

type analyzerOptions struct {
	precision    Precision
	precisionSet bool
}

// WithPrecision selects the arithmetic of the signature/inference hot
// path for the analyzer being calibrated. It applies BEFORE
// calibration, so the detector thresholds are fitted under the same
// arithmetic Analyze will run — the analyzer is self-consistent. To
// re-precision an already calibrated analyzer while preserving its
// thresholds exactly (the equivalence-testing shape), use
// Analyzer.WithPrecision instead. The default leaves the model's own
// configured precision in force (Float64 unless the model opts in).
func WithPrecision(p Precision) AnalyzerOption {
	return func(o *analyzerOptions) {
		o.precision = p
		o.precisionSet = true
	}
}

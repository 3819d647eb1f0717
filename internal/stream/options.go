package stream

// Option configures the streaming engine built by New. Options are
// applied in order over the zero config, so later options win and the
// documented config defaults fill whatever no option sets.
type Option func(*config)

// WithBuffer sets the per-subscription channel depth. The bus sheds the
// oldest message when a buffer overflows, so size this to the burstiness
// of the link, not the flight length (default 1024).
func WithBuffer(depth int) Option {
	return func(c *config) { c.Buffer = depth }
}

// WithLagHorizon bounds how far (seconds) the audio stream may run ahead
// of the telemetry watermark before a pending window is skipped as
// starved (default 10 s). This is what bounds engine memory when a
// telemetry stream stalls.
func WithLagHorizon(seconds float64) Option {
	return func(c *config) { c.MaxLagSeconds = seconds }
}

// WithGapFill processes windows overlapping an audio dropout using the
// zero-filled gap samples instead of skipping them (default false).
func WithGapFill(process bool) Option {
	return func(c *config) { c.GapFill = process }
}

// WithFlightName labels the produced report.
func WithFlightName(name string) Option {
	return func(c *config) { c.FlightName = name }
}

package sim

import (
	"fmt"
	"math"
)

// BatteryConfig models the flight battery. The paper's evaluation met one
// IMU-stage false positive attributed to "unstable flight caused by
// critically low battery levels" — reproducing that failure mode needs a
// battery whose sag degrades actuation.
type BatteryConfig struct {
	// CapacityWh is the pack energy (Wh). An X500-class 4S 3500 mAh pack
	// is ~52 Wh.
	CapacityWh float64
	// Cells is the series cell count.
	Cells int
	// InternalOhm is the pack's internal resistance (sag under load).
	InternalOhm float64
	// InitialSoC is the starting state of charge in (0, 1].
	InitialSoC float64
	// CriticalSoC is the level below which voltage ripple destabilises
	// actuation (and a real vehicle would enter landing failsafe).
	CriticalSoC float64
	// MotorEfficiency converts mechanical rotor power to electrical draw.
	MotorEfficiency float64
	// RippleHz and RippleAmp shape the low-battery actuation disturbance.
	RippleHz  float64
	RippleAmp float64
}

// DefaultBatteryConfig returns an X500-class 4S pack, fully charged.
func DefaultBatteryConfig() BatteryConfig {
	return BatteryConfig{
		CapacityWh:      52,
		Cells:           4,
		InternalOhm:     0.02,
		InitialSoC:      1.0,
		CriticalSoC:     0.12,
		MotorEfficiency: 0.7,
		RippleHz:        2.5,
		RippleAmp:       0.15,
	}
}

// Validate reports configuration errors.
func (c BatteryConfig) Validate() error {
	switch {
	case c.CapacityWh <= 0:
		return fmt.Errorf("sim: battery capacity %g must be positive", c.CapacityWh)
	case c.Cells < 1:
		return fmt.Errorf("sim: battery cells %d must be >= 1", c.Cells)
	case c.InitialSoC <= 0 || c.InitialSoC > 1:
		return fmt.Errorf("sim: initial SoC %g out of (0, 1]", c.InitialSoC)
	case c.CriticalSoC < 0 || c.CriticalSoC >= 1:
		return fmt.Errorf("sim: critical SoC %g out of [0, 1)", c.CriticalSoC)
	case c.MotorEfficiency <= 0 || c.MotorEfficiency > 1:
		return fmt.Errorf("sim: motor efficiency %g out of (0, 1]", c.MotorEfficiency)
	default:
		return nil
	}
}

// Battery tracks charge and produces the actuation derating factor.
type Battery struct {
	cfg  BatteryConfig
	soc  float64
	time float64
}

// NewBattery builds a battery after validating the config.
func NewBattery(cfg BatteryConfig) (*Battery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Battery{cfg: cfg, soc: cfg.InitialSoC}, nil
}

// cellVoltage approximates a LiPo discharge curve per cell.
func (b *Battery) cellVoltage() float64 {
	// 4.2 V full, ~3.6 V at mid charge, 3.0 V empty, with a steep knee.
	soc := b.soc
	return 3.0 + 0.6*soc + 0.6*math.Pow(soc, 6)
}

// Step drains the pack given the rotor mechanical power demand (sum of
// torque*omega over motors, in watts) over dt seconds, and returns the
// actuation factor in (0, 1]: the ratio by which the motor speed ceiling
// is derated, including low-battery ripple.
func (b *Battery) Step(mechPower, dt float64) float64 {
	elec := mechPower / b.cfg.MotorEfficiency
	drain := elec * dt / 3600 / b.cfg.CapacityWh
	b.soc -= drain
	if b.soc < 0 {
		b.soc = 0
	}
	b.time += dt

	vCell := b.cellVoltage()
	// Sag: approximate current from power at pack voltage.
	vPack := vCell * float64(b.cfg.Cells)
	if vPack > 0 {
		current := elec / vPack
		vPack -= current * b.cfg.InternalOhm
	}
	nominal := 3.7 * float64(b.cfg.Cells)
	factor := vPack / nominal
	if factor > 1 {
		factor = 1
	}
	if factor < 0.5 {
		factor = 0.5
	}
	// Below critical charge the regulator struggles: actuation ripples.
	if b.soc < b.cfg.CriticalSoC && b.cfg.RippleAmp > 0 {
		depth := 1 - b.soc/b.cfg.CriticalSoC
		factor *= 1 + b.cfg.RippleAmp*depth*math.Sin(2*math.Pi*b.cfg.RippleHz*b.time)
	}
	return factor
}

// MechanicalPower returns the rotor power demand (W) for the given motor
// speeds under the vehicle's torque model.
func MechanicalPower(v VehicleConfig, motorSpeed [NumMotors]float64) float64 {
	var p float64
	for _, w := range motorSpeed {
		p += v.TorqueCoeff * w * w * w
	}
	return p
}

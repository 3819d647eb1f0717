package attack

import (
	"fmt"
	"math"

	"soundboost/internal/sim"
)

// ActuatorDoS is the PWM block-waveform actuator attack of Dayanıklı et
// al. that the paper's §V-B discusses: injected block waveforms
// periodically drive PWM-controlled motors to idle. SoundBoost
// generalises to it because stopped rotors go quiet — the acoustic model
// predicts near-zero thrust, physically impossible for an airborne
// vehicle.
type ActuatorDoS struct {
	// Window bounds the attack.
	Window Window
	// PeriodSeconds is the block waveform period.
	PeriodSeconds float64
	// DutyOff is the fraction of each period the motors are forced to
	// idle, in (0, 1).
	DutyOff float64
	// Motors lists the attacked motor indices; empty = all. A quadcopter
	// cannot be uniformly attacked in practice (paper §V-B), but the
	// simulated worst case is useful for bounding.
	Motors []int
	// IdleSpeed is the forced motor speed (rad/s) during the off phase.
	IdleSpeed float64
}

// Verify interface compliance.
var _ sim.ActuatorInterceptor = (*ActuatorDoS)(nil)

// Validate reports configuration errors.
func (a *ActuatorDoS) Validate() error {
	if err := a.Window.Validate(); err != nil {
		return err
	}
	if a.PeriodSeconds <= 0 {
		return fmt.Errorf("attack: actuator DoS period %g must be positive", a.PeriodSeconds)
	}
	if a.DutyOff <= 0 || a.DutyOff >= 1 {
		return fmt.Errorf("attack: actuator DoS duty %g out of (0, 1)", a.DutyOff)
	}
	return nil
}

// InterceptMotors implements sim.ActuatorInterceptor.
func (a *ActuatorDoS) InterceptMotors(t float64, cmd [sim.NumMotors]float64) [sim.NumMotors]float64 {
	if !a.Window.Contains(t) {
		return cmd
	}
	phase := math.Mod(t-a.Window.Start, a.PeriodSeconds) / a.PeriodSeconds
	if phase >= a.DutyOff {
		return cmd
	}
	idle := a.IdleSpeed
	if len(a.Motors) == 0 {
		for i := range cmd {
			cmd[i] = idle
		}
		return cmd
	}
	for _, m := range a.Motors {
		if m >= 0 && m < sim.NumMotors {
			cmd[m] = idle
		}
	}
	return cmd
}

// Package sim implements the quadcopter substrate of the SoundBoost
// reproduction: 6-DoF rigid-body dynamics, first-order motor response, a
// motor mixer, the cascaded position/velocity/attitude/rate controller stack
// of a PX4-class autopilot, a complementary-filter navigation estimator,
// waypoint missions, and a gusty wind model.
//
// The design invariant the whole repository rests on: motor angular
// velocities are the single shared physical state. They produce thrust
// (hence the true accelerations the IMU and GPS observe) and they produce
// sound (synthesised by the acoustics package). Everything SoundBoost
// learns exploits that coupling.
package sim

import (
	"fmt"
	"math"

	"soundboost/internal/mathx"
)

// NumMotors is the rotor count of the simulated airframe (quad-X).
const NumMotors = 4

// VehicleConfig holds the physical parameters of the airframe.
type VehicleConfig struct {
	// Mass in kg.
	Mass float64
	// Inertia is the diagonal of the body inertia tensor (kg m^2).
	Inertia mathx.Vec3
	// ArmLength is the motor boom length from center (m).
	ArmLength float64
	// MotorTau is the first-order motor response time constant (s).
	MotorTau float64
	// ThrustCoeff maps motor speed squared to thrust: T = k_T * w^2 (N s^2).
	ThrustCoeff float64
	// TorqueCoeff maps motor speed squared to reaction torque (N m s^2).
	TorqueCoeff float64
	// MaxMotorSpeed is the rotor speed ceiling (rad/s).
	MaxMotorSpeed float64
	// MinMotorSpeed is the idle rotor speed while armed (rad/s).
	MinMotorSpeed float64
	// LinearDrag is the translational drag coefficient (N s/m).
	LinearDrag float64
	// AngularDrag is the rotational drag coefficient (N m s/rad).
	AngularDrag float64
	// Blades is the propeller blade count (sets the blade-passing frequency).
	Blades int
}

// DefaultVehicleConfig models a Holybro X500-class quadcopter: ~2 kg takeoff
// mass, 0.25 m arms, 2-blade 10-inch props hovering near 105 rev/s — which
// puts the blade-passing line near 210 Hz, matching the paper's "200 Hz
// group".
func DefaultVehicleConfig() VehicleConfig {
	return VehicleConfig{
		Mass:          2.0,
		Inertia:       mathx.Vec3{X: 0.022, Y: 0.022, Z: 0.038},
		ArmLength:     0.25,
		MotorTau:      0.05,
		ThrustCoeff:   1.125e-5,
		TorqueCoeff:   1.8e-7,
		MaxMotorSpeed: 1150,
		MinMotorSpeed: 120,
		Blades:        2,
		LinearDrag:    0.35,
		AngularDrag:   0.005,
	}
}

// Validate reports configuration errors that would break the dynamics.
func (c VehicleConfig) Validate() error {
	switch {
	case c.Mass <= 0:
		return fmt.Errorf("sim: mass %g must be positive", c.Mass)
	case c.Inertia.X <= 0 || c.Inertia.Y <= 0 || c.Inertia.Z <= 0:
		return fmt.Errorf("sim: inertia %v must be positive", c.Inertia)
	case c.ArmLength <= 0:
		return fmt.Errorf("sim: arm length %g must be positive", c.ArmLength)
	case c.MotorTau <= 0:
		return fmt.Errorf("sim: motor tau %g must be positive", c.MotorTau)
	case c.ThrustCoeff <= 0:
		return fmt.Errorf("sim: thrust coefficient %g must be positive", c.ThrustCoeff)
	case c.MaxMotorSpeed <= c.MinMotorSpeed:
		return fmt.Errorf("sim: max motor speed %g must exceed min %g", c.MaxMotorSpeed, c.MinMotorSpeed)
	case c.Blades < 1:
		return fmt.Errorf("sim: blade count %d must be at least 1", c.Blades)
	default:
		return nil
	}
}

// HoverMotorSpeed returns the per-motor speed (rad/s) that balances gravity.
func (c VehicleConfig) HoverMotorSpeed() float64 {
	return math.Sqrt(c.Mass * gravity / (NumMotors * c.ThrustCoeff))
}

// MotorPosition returns the body-frame position of motor i for the quad-X
// layout. Motor order: 0 front-right, 1 rear-left, 2 front-left,
// 3 rear-right (PX4 numbering). NED body frame: +x forward, +y right.
func (c VehicleConfig) MotorPosition(i int) mathx.Vec3 {
	d := c.ArmLength / math.Sqrt2
	switch i {
	case 0:
		return mathx.Vec3{X: d, Y: d}
	case 1:
		return mathx.Vec3{X: -d, Y: -d}
	case 2:
		return mathx.Vec3{X: d, Y: -d}
	case 3:
		return mathx.Vec3{X: -d, Y: d}
	default:
		panic(fmt.Sprintf("sim: motor index %d out of range", i))
	}
}

// MotorSpinDir returns +1 for CCW motors (0, 1) and -1 for CW motors (2, 3).
func MotorSpinDir(i int) float64 {
	if i == 0 || i == 1 {
		return 1
	}
	return -1
}

const gravity = 9.80665

// State is the complete physical state of the vehicle.
type State struct {
	// Time is simulation time in seconds.
	Time float64
	// Pos is position in the local NED world frame (m); Z is negative above
	// the origin.
	Pos mathx.Vec3
	// Vel is world-frame velocity (m/s).
	Vel mathx.Vec3
	// Att is the body-to-world attitude quaternion.
	Att mathx.Quat
	// AngVel is the body-frame angular velocity (rad/s).
	AngVel mathx.Vec3
	// MotorSpeed holds the current rotor speeds (rad/s).
	MotorSpeed [NumMotors]float64
	// Accel is the world-frame acceleration (m/s^2) from the last dynamics
	// step; recorded so sensors and logs can read ground truth.
	Accel mathx.Vec3
}

// SpecificForceBody returns the specific force an ideal accelerometer
// strapped to the body would measure: f = R^T (a - g) where a is inertial
// acceleration and g = (0,0,+9.81) in NED.
func (s State) SpecificForceBody() mathx.Vec3 {
	g := mathx.Vec3{Z: gravity}
	return s.Att.RotateInv(s.Accel.Sub(g))
}

// Dynamics integrates the rigid-body equations of motion.
type Dynamics struct {
	cfg VehicleConfig
}

// NewDynamics builds the integrator after validating the config.
func NewDynamics(cfg VehicleConfig) (*Dynamics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Dynamics{cfg: cfg}, nil
}

// Step advances the state by dt seconds given per-motor speed commands
// (rad/s) and the current world-frame wind velocity (m/s). It uses
// semi-implicit Euler integration, which is stable for the stiff motor +
// attitude dynamics at the simulation rates used here (>= 250 Hz).
func (d *Dynamics) Step(s State, motorCmd [NumMotors]float64, wind mathx.Vec3, dt float64) State {
	c := d.cfg

	// Motor first-order response toward the (clamped) command.
	for i := 0; i < NumMotors; i++ {
		cmd := mathx.Clamp(motorCmd[i], c.MinMotorSpeed, c.MaxMotorSpeed)
		s.MotorSpeed[i] += (cmd - s.MotorSpeed[i]) * dt / c.MotorTau
	}

	// Thrust and torques in the body frame.
	var totalThrust float64
	var torque mathx.Vec3
	for i := 0; i < NumMotors; i++ {
		w := s.MotorSpeed[i]
		f := c.ThrustCoeff * w * w
		totalThrust += f
		p := c.MotorPosition(i)
		// Thrust acts along -z body; torque = r x F.
		torque.X += -p.Y * f
		torque.Y += p.X * f
		torque.Z += MotorSpinDir(i) * c.TorqueCoeff * w * w
	}
	// Translational dynamics (world/NED frame).
	thrustWorld := s.Att.Rotate(mathx.Vec3{Z: -totalThrust})
	relWind := wind.Sub(s.Vel)
	drag := relWind.Scale(c.LinearDrag)
	accel := thrustWorld.Add(drag).Scale(1 / c.Mass).Add(mathx.Vec3{Z: gravity})

	// Rotational dynamics (body frame): I*dw = tau - w x (I w) - drag.
	iw := s.AngVel.Hadamard(c.Inertia)
	gyroTorque := s.AngVel.Cross(iw)
	angDrag := s.AngVel.Scale(c.AngularDrag)
	angAccel := torque.Sub(gyroTorque).Sub(angDrag)
	angAccel = mathx.Vec3{
		X: angAccel.X / c.Inertia.X,
		Y: angAccel.Y / c.Inertia.Y,
		Z: angAccel.Z / c.Inertia.Z,
	}

	// Semi-implicit Euler: update velocities first, then positions.
	s.Vel = s.Vel.Add(accel.Scale(dt))
	s.Pos = s.Pos.Add(s.Vel.Scale(dt))
	s.AngVel = s.AngVel.Add(angAccel.Scale(dt))
	s.Att = s.Att.Integrate(s.AngVel, dt)
	s.Accel = accel
	s.Time += dt
	return s
}

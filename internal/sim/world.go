package sim

import (
	"fmt"
	"math/rand"

	"soundboost/internal/mathx"
	"soundboost/internal/sensors"
)

// WorldConfig assembles a full simulation run.
type WorldConfig struct {
	Vehicle    VehicleConfig
	Controller ControllerConfig
	IMU        sensors.IMUConfig
	GPS        sensors.GPSConfig
	Wind       WindConfig
	// Battery, when non-nil, models pack drain and low-charge actuation
	// ripple (nil = ideal power).
	Battery *BatteryConfig
	// PhysicsRate is the dynamics integration rate in Hz.
	PhysicsRate float64
	// ControlRate is the controller update rate in Hz.
	ControlRate float64
	// AuxIMUs is the number of redundant IMUs beyond the primary (many
	// flight controllers carry 2-3). Aux units share the primary's error
	// model but have independent noise and are NOT reachable by the
	// primary's attack interceptor — resonant injection is tuned to one
	// sensor model (paper §V-B).
	AuxIMUs int
	// CompassNoiseStd is the heading noise sigma (rad).
	CompassNoiseStd float64
	// Seed drives all stochastic components of the run.
	Seed int64
}

// DefaultWorldConfig returns the standard outdoor-calm configuration.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{
		Vehicle:         DefaultVehicleConfig(),
		Controller:      DefaultControllerConfig(),
		IMU:             sensors.DefaultIMUConfig(),
		GPS:             sensors.DefaultGPSConfig(),
		Wind:            CalmWind(),
		PhysicsRate:     500,
		ControlRate:     250,
		CompassNoiseStd: 0.01,
		Seed:            1,
	}
}

// StepRecord is one physics-rate snapshot of everything observable,
// the raw material for flight logs and acoustic synthesis.
type StepRecord struct {
	// Time is the simulation timestamp (s).
	Time float64
	// True ground-truth kinematics.
	TruePos    mathx.Vec3
	TrueVel    mathx.Vec3
	TrueAccel  mathx.Vec3 // world frame, inertial
	TrueAtt    mathx.Quat
	MotorSpeed [NumMotors]float64
	// Estimated state (the autopilot's belief).
	EstPos mathx.Vec3
	EstVel mathx.Vec3
	// Latest sensor outputs (held between samples).
	IMU sensors.IMUMeasurement
	// AuxIMU holds the redundant IMU measurements (may be empty).
	AuxIMU []sensors.IMUMeasurement
	GPS    sensors.GPSFix
	// Wind is the world-frame wind vector.
	Wind mathx.Vec3
}

// ActuatorInterceptor rewrites motor commands in flight — the hook for
// physical-layer actuator attacks (e.g. PWM block-waveform DoS).
type ActuatorInterceptor interface {
	// InterceptMotors maps the controller's motor commands to the ones the
	// ESCs actually receive at time t.
	InterceptMotors(t float64, cmd [NumMotors]float64) [NumMotors]float64
}

// World owns one simulated flight.
type World struct {
	cfg        WorldConfig
	dyn        *Dynamics
	ctrl       *Controller
	est        *Estimator
	imu        *sensors.IMU
	auxIMU     []*sensors.IMU
	gps        *sensors.GPS
	compass    *sensors.Compass
	wind       *Wind
	state      State
	battery    *Battery
	actuator   ActuatorInterceptor
	lastIMU    sensors.IMUMeasurement
	lastAux    []sensors.IMUMeasurement
	lastGPS    sensors.GPSFix
	lastGPSAt  float64
	lastIMUAt  float64
	motorCmd   [NumMotors]float64
	ctrlPeriod float64
	nextCtrl   float64
}

// NewWorld wires up a simulation. The vehicle starts at the origin on the
// ground... more precisely at the mission's first setpoint altitude with
// zero velocity (missions in this reproduction start airborne, mirroring
// the paper's "attacks happen after take-off" threat model).
func NewWorld(cfg WorldConfig) (*World, error) {
	dyn, err := NewDynamics(cfg.Vehicle)
	if err != nil {
		return nil, err
	}
	if cfg.PhysicsRate <= 0 || cfg.ControlRate <= 0 {
		return nil, fmt.Errorf("sim: rates must be positive (physics %g, control %g)", cfg.PhysicsRate, cfg.ControlRate)
	}
	if cfg.ControlRate > cfg.PhysicsRate {
		return nil, fmt.Errorf("sim: control rate %g exceeds physics rate %g", cfg.ControlRate, cfg.PhysicsRate)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{
		cfg:        cfg,
		dyn:        dyn,
		ctrl:       NewController(cfg.Vehicle, cfg.Controller),
		est:        NewEstimator(),
		imu:        sensors.NewIMU(cfg.IMU, rand.New(rand.NewSource(rng.Int63()))),
		gps:        sensors.NewGPS(cfg.GPS, rand.New(rand.NewSource(rng.Int63()))),
		compass:    sensors.NewCompass(cfg.CompassNoiseStd, rand.New(rand.NewSource(rng.Int63()))),
		wind:       NewWind(cfg.Wind, rand.New(rand.NewSource(rng.Int63()))),
		ctrlPeriod: 1 / cfg.ControlRate,
	}
	for i := 0; i < cfg.AuxIMUs; i++ {
		w.auxIMU = append(w.auxIMU, sensors.NewIMU(cfg.IMU, rand.New(rand.NewSource(rng.Int63())))) //nolint:gosec
	}
	if cfg.Battery != nil {
		b, err := NewBattery(*cfg.Battery)
		if err != nil {
			return nil, err
		}
		w.battery = b
	}
	return w, nil
}

// IMUSensor exposes the primary IMU for attack installation.
func (w *World) IMUSensor() *sensors.IMU { return w.imu }

// GPSSensor exposes the GPS for attack installation.
func (w *World) GPSSensor() *sensors.GPS { return w.gps }

// SetActuatorInterceptor installs (or clears, with nil) the actuator
// attack hook.
func (w *World) SetActuatorInterceptor(a ActuatorInterceptor) { w.actuator = a }

// Run flies the mission and returns one StepRecord per physics step.
// The vehicle is initialised hovering at the mission's first setpoint.
func (w *World) Run(m Mission) []StepRecord {
	sp0 := m.Setpoint(0)
	hover := w.cfg.Vehicle.HoverMotorSpeed()
	w.state = State{
		Pos: sp0.Pos,
		Att: mathx.QuatFromEuler(0, 0, sp0.Yaw),
	}
	for i := range w.state.MotorSpeed {
		w.state.MotorSpeed[i] = hover
		w.motorCmd[i] = hover
	}
	w.est.Init(sp0.Pos, mathx.Vec3{}, w.state.Att)
	w.ctrl.Reset()
	w.nextCtrl = 0

	dt := 1 / w.cfg.PhysicsRate
	steps := int(m.Duration() * w.cfg.PhysicsRate)
	records := make([]StepRecord, 0, steps)
	for i := 0; i < steps; i++ {
		t := w.state.Time
		wind := w.wind.Step(dt)

		// --- Sensors sample ground truth (possibly intercepted by attacks).
		if w.imu.Due(t) {
			// Vibration level: total rotor kinetic intensity relative to
			// hover, driving the accelerometer's rectification bias.
			hover := w.cfg.Vehicle.HoverMotorSpeed()
			var sumSq float64
			for _, ms := range w.state.MotorSpeed {
				sumSq += ms * ms
			}
			w.imu.SetVibration(sumSq / (float64(len(w.state.MotorSpeed)) * hover * hover))
			sf := w.state.SpecificForceBody()
			m := w.imu.Sample(t, sf, w.state.AngVel)
			for _, aux := range w.auxIMU {
				aux.SetVibration(sumSq / (float64(len(w.state.MotorSpeed)) * hover * hover))
			}
			imuDt := t - w.lastIMUAt
			if imuDt <= 0 || w.lastIMUAt == 0 && t == 0 {
				imuDt = 1 / w.cfg.IMU.SampleRate
			}
			w.est.PredictIMU(m, imuDt)
			_, _, trueYaw := w.state.Att.Euler()
			w.est.CorrectYaw(w.compass.Heading(trueYaw), imuDt)
			w.lastIMU = m
			w.lastAux = w.lastAux[:0]
			for _, aux := range w.auxIMU {
				w.lastAux = append(w.lastAux, aux.Sample(t, sf, w.state.AngVel))
			}
			w.lastIMUAt = t
		}
		if w.gps.Due(t) {
			f := w.gps.Fix(t, w.state.Pos, w.state.Vel)
			gpsDt := t - w.lastGPSAt
			if gpsDt <= 0 {
				gpsDt = 1 / w.cfg.GPS.SampleRate
			}
			w.est.CorrectGPS(f, gpsDt)
			w.lastGPS = f
			w.lastGPSAt = t
		}

		// --- Controller at its own rate, consuming the estimate.
		if t >= w.nextCtrl {
			sp := m.Setpoint(t)
			w.motorCmd = w.ctrl.Update(w.est.Nav(), sp, w.ctrlPeriod)
			w.nextCtrl = t + w.ctrlPeriod
		}

		// --- Physics (with battery-derated actuation when modelled).
		cmd := w.motorCmd
		if w.actuator != nil {
			cmd = w.actuator.InterceptMotors(t, cmd)
		}
		if w.battery != nil {
			factor := w.battery.Step(MechanicalPower(w.cfg.Vehicle, w.state.MotorSpeed), dt)
			for i := range cmd {
				cmd[i] *= factor
			}
		}
		w.state = w.dyn.Step(w.state, cmd, wind, dt)

		nav := w.est.Nav()
		records = append(records, StepRecord{
			Time:       w.state.Time,
			TruePos:    w.state.Pos,
			TrueVel:    w.state.Vel,
			TrueAccel:  w.state.Accel,
			TrueAtt:    w.state.Att,
			MotorSpeed: w.state.MotorSpeed,
			EstPos:     nav.Pos,
			EstVel:     nav.Vel,
			IMU:        w.lastIMU,
			AuxIMU:     append([]sensors.IMUMeasurement(nil), w.lastAux...),
			GPS:        w.lastGPS,
			Wind:       wind,
		})
	}
	return records
}

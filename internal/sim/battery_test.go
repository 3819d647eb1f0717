package sim

import (
	"math"
	"testing"

	"soundboost/internal/mathx"
)

func TestBatteryConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*BatteryConfig)
		wantOK bool
	}{
		{"default", func(c *BatteryConfig) {}, true},
		{"zero capacity", func(c *BatteryConfig) { c.CapacityWh = 0 }, false},
		{"zero cells", func(c *BatteryConfig) { c.Cells = 0 }, false},
		{"soc above 1", func(c *BatteryConfig) { c.InitialSoC = 1.5 }, false},
		{"critical 1", func(c *BatteryConfig) { c.CriticalSoC = 1 }, false},
		{"bad efficiency", func(c *BatteryConfig) { c.MotorEfficiency = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultBatteryConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.wantOK {
				t.Errorf("Validate() = %v, wantOK %v", err, tt.wantOK)
			}
		})
	}
}

func TestBatteryDrainsUnderLoad(t *testing.T) {
	b, err := NewBattery(DefaultBatteryConfig())
	if err != nil {
		t.Fatal(err)
	}
	start := b.soc
	// 300 W of mechanical demand for 60 simulated seconds.
	for i := 0; i < 6000; i++ {
		b.Step(300, 0.01)
	}
	if b.soc >= start {
		t.Error("battery did not drain")
	}
	// ~430 W electrical for a minute on a 52 Wh pack ~ 14% drain.
	drained := start - b.soc
	if drained < 0.05 || drained > 0.3 {
		t.Errorf("drained %.1f%% in a minute, implausible", drained*100)
	}
}

func TestBatteryFactorDegradesWithCharge(t *testing.T) {
	cfg := DefaultBatteryConfig()
	full, err := NewBattery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InitialSoC = 0.3
	low, err := NewBattery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fFull := full.Step(300, 0.01)
	fLow := low.Step(300, 0.01)
	if fLow >= fFull {
		t.Errorf("low-charge factor %v not below full-charge %v", fLow, fFull)
	}
	if fFull > 1 || fLow < 0.5 {
		t.Errorf("factors out of range: %v, %v", fFull, fLow)
	}
}

func TestBatteryCriticalRipple(t *testing.T) {
	cfg := DefaultBatteryConfig()
	cfg.InitialSoC = 0.05 // below critical
	b, err := NewBattery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.soc >= cfg.CriticalSoC {
		t.Fatal("5% SoC not critical")
	}
	var minF, maxF = math.Inf(1), math.Inf(-1)
	for i := 0; i < 200; i++ {
		f := b.Step(300, 0.005)
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	if maxF-minF < 0.01 {
		t.Errorf("no ripple below critical charge: range %v", maxF-minF)
	}
}

func TestBatterySoCFloor(t *testing.T) {
	cfg := DefaultBatteryConfig()
	cfg.CapacityWh = 0.001
	b, err := NewBattery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		b.Step(500, 0.1)
	}
	if b.soc < 0 {
		t.Errorf("SoC went negative: %v", b.soc)
	}
}

func TestMechanicalPowerHover(t *testing.T) {
	v := DefaultVehicleConfig()
	w := v.HoverMotorSpeed()
	p := MechanicalPower(v, [NumMotors]float64{w, w, w, w})
	// An X500-class quad hovers at roughly 150-300 W mechanical.
	if p < 100 || p > 400 {
		t.Errorf("hover mechanical power %v W implausible", p)
	}
}

// The paper's false-positive mechanism: a critically low battery makes
// hover visibly less stable.
func TestLowBatteryDestabilisesHover(t *testing.T) {
	accelStd := func(batt *BatteryConfig, seed int64) float64 {
		cfg := DefaultWorldConfig()
		cfg.Seed = seed
		cfg.Battery = batt
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs := w.Run(HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 10})
		var sum, sumSq float64
		n := 0
		for _, r := range recs[len(recs)/2:] {
			sum += r.TrueAccel.Z
			sumSq += r.TrueAccel.Z * r.TrueAccel.Z
			n++
		}
		mean := sum / float64(n)
		return math.Sqrt(sumSq/float64(n) - mean*mean)
	}
	healthy := accelStd(nil, 5)
	lowCfg := DefaultBatteryConfig()
	lowCfg.InitialSoC = 0.06
	low := accelStd(&lowCfg, 5)
	if low < 1.5*healthy {
		t.Errorf("low-battery accel std %v not much above healthy %v", low, healthy)
	}
}

func TestWorldRejectsBadBattery(t *testing.T) {
	cfg := DefaultWorldConfig()
	bad := DefaultBatteryConfig()
	bad.CapacityWh = -1
	cfg.Battery = &bad
	if _, err := NewWorld(cfg); err == nil {
		t.Error("invalid battery accepted")
	}
}

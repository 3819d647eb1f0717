package dataset

import (
	"bytes"
	"testing"
)

func TestWriteSeriesCSVRagged(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, []string{"a", "b"}, [][]float64{{1, 2}, {3}})
	if err == nil {
		t.Error("ragged rows accepted")
	}
}

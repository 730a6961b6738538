package sim

import "testing"

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := New()
		for j := 0; j < 1000; j++ {
			eng.Schedule(Time(j%97)*Millisecond, func() {})
		}
		eng.RunUntilIdle()
	}
}

func BenchmarkTimerChurn(b *testing.B) {
	eng := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := eng.Schedule(Second, func() {})
		t.Stop()
	}
}

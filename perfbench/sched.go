package main

// splitmix64 is a counter-based mixer: hashing (seed, i) gives request i
// its random draw without depending on any earlier draw.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillSchedule writes the open-loop arrival schedule: dst[i] is request
// i's due time in nanoseconds after the start of the measured phase. Gaps
// are uniform on [mean/2, 3·mean/2] with mean 1/rate, the service
// generator's own arrival model, each drawn from (seed, i) alone, so the
// schedule is a pure function of seed and rate. Exponential (Poisson) gaps
// were tried: their bursts queue requests, and the queueing amplified the
// host's speed drift into half again as much run-to-run spread.
func fillSchedule(dst []int64, seed uint64, rate float64) {
	mean := 1e9 / rate
	t := 0.0
	for i := range dst {
		// 53 random bits give u in [0, 1).
		u := float64(splitmix64(seed^uint64(i)*0xd1b54a32d192ed03)>>11) / (1 << 53)
		t += (0.5 + u) * mean
		dst[i] = int64(t)
	}
}

// opSeed is request i's operation seed under the run seed: it alone fixes
// the request's class, keys and amount, so the sequential oracle can replay
// a committed request from its index.
func opSeed(runSeed uint64, i uint64) uint64 {
	return splitmix64(runSeed*0x9e3779b97f4a7c15 ^ (i + 1))
}

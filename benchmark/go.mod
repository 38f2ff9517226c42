module cicada/benchmark

go 1.22

require cicada v0.0.0

replace cicada => ../

module pagerankvm/benchmarks

go 1.22

require pagerankvm v0.0.0

replace pagerankvm => ../

module cagc/bench

go 1.22

require cagc v0.0.0

replace cagc => ../

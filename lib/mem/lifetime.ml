let years ~size_bytes ~endurance ~write_rate_bytes_per_s =
  if write_rate_bytes_per_s <= 0.0 then infinity
  else size_bytes *. endurance /. (write_rate_bytes_per_s *. Kg_util.Units.seconds_per_year)

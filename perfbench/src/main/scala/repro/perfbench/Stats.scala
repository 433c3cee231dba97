package repro.perfbench

/** Order statistics for the benchmark's timings. */
object Stats {

  /** Nearest-rank percentile: the smallest sample with at least `p` percent
    * of the samples at or below it. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(p >= 0 && p <= 100, s"percentile $p outside [0, 100]")
    val s = xs.toArray.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(p / 100 * s.length).toInt - 1)))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Counts of `xs` in `bins` equal-width bins over [0, 1]; 1.0 lands in the
    * last bin. */
  def unitHistogram(xs: Iterable[Double], bins: Int): Array[Long] = {
    val h = new Array[Long](bins)
    xs.foreach(x => h(math.min(bins - 1, math.max(0, (x * bins).toInt))) += 1)
    h
  }
}

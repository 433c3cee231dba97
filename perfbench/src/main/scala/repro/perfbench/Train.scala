package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{AlarmPipeline, HybridPipeline, Reports}
import repro.data.{AlarmSynth, IncidentSynth}
import repro.textlytics.{IncidentPipeline, RiskFactors}

/** The `train` workload: the offline refresh that prepares the Sitasys
  * split, fits and evaluates the four classifiers, annotates the incident
  * corpus and derives the per-ZIP risk buckets. No streaming code runs. */
object Train {

  final class Fixture(spark: SparkSession, seed: Long, sf: Double) {
    val labeled: DataFrame = AlarmPipeline.labelByDuration(
      AlarmSynth.sitasys(spark, sf, seed = seed, cities = Bench.cities), 1).cache()
    val nAlarms: Long = labeled.count()
    val messages: Vector[IncidentSynth.RawMessage] =
      IncidentSynth.corpus(Bench.cities, sf = sf, seed = seed)._1
    def close(): Unit = labeled.unpersist()
  }

  final case class Fit(algorithm: String, fitSec: Double, evalSec: Double, accuracy: Double)

  final case class Refresh(wallSec: Double, prepareSec: Double, fits: Seq[Fit],
                           annotateSec: Double, annotated: Vector[IncidentPipeline.AnnotatedIncident],
                           riskSec: Double, riskErrors: Seq[String]) {
    def stages: String =
      (f"prepare $prepareSec%.1f s" +: fits.map(f => f"${f.algorithm} ${f.fitSec + f.evalSec}%.1f s") :+
        f"annotate $annotateSec%.1f s" :+ f"risk $riskSec%.1f s").mkString(", ")
  }

  def refresh(spark: SparkSession, f: Fixture, k: Reports.MlKnobs = Reports.MlKnobs()): Refresh = {
    import spark.implicits._
    val t0 = System.nanoTime()
    val prepared = AlarmPipeline.prepare(f.labeled, AlarmPipeline.featuresFor("sitasys"))
    val t1 = System.nanoTime()
    val fits = AlarmPipeline.algorithms(k.rfMaxDepth, k.rfNumTrees, k.svmMaxIter, k.dnnEpochs).map { clf =>
      val e0 = System.nanoTime()
      val r = AlarmPipeline.evaluate(clf, prepared)
      Fit(r.algorithm, r.trainTimeSec, (System.nanoTime() - e0) / 1e9 - r.trainTimeSec, r.accuracy)
    }
    prepared.train.unpersist(); prepared.test.unpersist()
    val t2 = System.nanoTime()
    val annotated = IncidentPipeline.annotateAll(f.messages, Bench.cities)
    val t3 = System.nanoTime()
    val risk = RiskFactors.compute(spark, annotated.toDF(), Bench.cities)
      .join(RiskFactors.gazetteerDf(spark, Bench.cities).select("zip", "n_zips_in_city"), Seq("zip"))
      .withColumnRenamed("n_zips_in_city", "n_zips_in_city_marker")
    val perCity = risk.select("city", "n_incidents", "arf").distinct().collect()
      .map(r => r.getString(0) -> (r.getLong(1), r.getDouble(2))).toMap
    val buckets = HybridPipeline.riskBuckets(risk).collect()
    val t4 = System.nanoTime()
    Refresh((t4 - t0) / 1e9, (t1 - t0) / 1e9, fits, (t3 - t2) / 1e9, annotated, (t4 - t3) / 1e9,
      checkRisk(annotated, perCity, buckets.length))
  }

  /** Compare the risk factors with a plain count over the annotated corpus:
    * one row per ZIP of every city with an incident, `arf` = incidents per
    * inhabitant. Returns what disagrees. */
  def checkRisk(annotated: Vector[IncidentPipeline.AnnotatedIncident],
                perCity: Map[String, (Long, Double)], nBuckets: Int): Seq[String] = {
    val counts = annotated.groupBy(_.city).view.mapValues(_.size.toLong).toMap
    val covered = Bench.cities.filter(c => counts.contains(c.name))
    val wrongCity = covered.flatMap { c =>
      val want = (counts(c.name), counts(c.name).toDouble / c.population)
      perCity.get(c.name) match {
        case Some((n, arf)) if n == want._1 && math.abs(arf - want._2) <= 1e-12 => None
        case got => Some(s"${c.name}: want $want, got $got")
      }
    }
    val nZips = covered.map(_.zips.size).sum
    wrongCity ++ (if (nBuckets == nZips) Nil else Seq(s"$nBuckets risk buckets, want $nZips"))
  }
}

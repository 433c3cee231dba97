package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, udf}
import org.apache.spark.util.CollectionAccumulator
import repro.ml.AlarmModel
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One scored alarm as the Alarm Receiving Center would receive it. */
final case class Verdict(id: Long, pTrue: Double, prediction: Double)

/** Stands in for the ARC: every alarm the consumer scores is recorded here.
  *
  * The model it wraps filters on a non-deterministic UDF over `id`, `p_true`
  * and `prediction` that always passes. Catalyst can neither drop nor reorder
  * that filter, so any count over the scored frame has to run the model for
  * every alarm; without it `EndToEnd` prunes scoring away entirely. The rows
  * go into an accumulator because the UDF runs in serialized task closures,
  * where a collection captured from the caller would never see them.
  */
final class ScoreSink(spark: SparkSession) {
  private val acc: CollectionAccumulator[Verdict] =
    spark.sparkContext.collectionAccumulator[Verdict]("perfbench.sink")

  /** `inner`, with every scored row recorded into this sink. */
  def wrap(inner: AlarmModel): AlarmModel = new SinkModel(inner, acc)

  /** Verdicts received since the last drain; call between batches only. */
  def drain(): Seq[Verdict] = {
    val out = acc.value.asScala.toVector
    acc.reset()
    out
  }
}

private final class SinkModel(inner: AlarmModel, acc: CollectionAccumulator[Verdict])
    extends AlarmModel {
  def name: String = inner.name
  def transform(df: DataFrame): DataFrame = {
    val a = acc
    val record = udf { (id: Long, p: Double, pred: Double) => a.add(Verdict(id, p, pred)); true }
      .asNondeterministic()
    inner.transform(df).where(record(col("id"), col("p_true"), col("prediction")))
  }
}

/** Exactly-once bookkeeping against a reference scoring.
  *
  * An attempted alarm fails if it never reaches the sink, reaches it more
  * than once, or arrives with a `p_true` more than `tol` away from the
  * reference, a different prediction or a different ARC routing decision.
  * Verdicts for ids nobody sent are counted apart, as `unexpected`.
  */
final class Tally(reference: Map[Long, Verdict], threshold: Double, tol: Double = 1e-9) {
  private val seen = mutable.HashSet.empty[Long]
  private val bad  = mutable.HashSet.empty[Long]

  /** Record one verdict; returns whether it was a first, correct delivery. */
  def record(v: Verdict): Boolean = {
    val first = seen.add(v.id)
    val ok = first && reference.get(v.id).exists { r =>
      math.abs(r.pTrue - v.pTrue) <= tol && r.prediction == v.prediction &&
        (r.pTrue >= threshold) == (v.pTrue >= threshold)
    }
    if (!ok) bad += v.id
    ok
  }

  /** Mark delivered alarms failed for a reason found outside this tally. */
  def fail(ids: Iterable[Long]): Unit = bad ++= ids

  def isCorrect(id: Long): Boolean = reference.contains(id) && seen(id) && !bad(id)

  def attempted: Long = reference.size.toLong
  def correct: Long = reference.keysIterator.count(isCorrect).toLong
  def failed: Long = attempted - correct
  def unexpected: Long = seen.count(id => !reference.contains(id)).toLong
}

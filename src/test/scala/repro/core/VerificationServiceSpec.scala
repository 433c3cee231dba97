package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.ml.SparkClassifiers

class VerificationServiceSpec extends SparkSpec {

  private lazy val (service, labeled) = {
    val df = AlarmPipeline.labelByDuration(TestFixtures.sitasys(spark), 1)
    val prepared = AlarmPipeline.prepare(df, AlarmPipeline.featuresFor("sitasys"))
    val model = SparkClassifiers.Logistic().fit(prepared.train)
    (new VerificationService(prepared.encoder, model), df)
  }

  test("verify adds confidence, prediction and the ARC routing decision") {
    val out = service.verify(labeled.limit(100))
    assert(Seq("p_true", "prediction", "send_to_arc").forall(out.columns.contains))
    assert(out.count() == 100)
  }

  test("send_to_arc is exactly p_true >= threshold") {
    val out = service.verify(labeled.limit(500))
    val bad = out.where(
      (col("p_true") >= service.threshold && !col("send_to_arc")) ||
      (col("p_true") < service.threshold && col("send_to_arc"))).count()
    assert(bad == 0)
  }

  test("a stricter customer threshold routes fewer alarms to the ARC") {
    val strict = new VerificationService(service.encoder, service.model, threshold = 0.9)
    val in = labeled.limit(1000)
    val loose = service.verify(in).where(col("send_to_arc")).count()
    val tight = strict.verify(in).where(col("send_to_arc")).count()
    assert(tight <= loose)
  }

  test("verify works on alarms without a label column (live stream shape)") {
    val out = service.verify(labeled.drop("label").limit(50))
    assert(out.count() == 50)
    assert(out.where(col("p_true").isNull).count() == 0)
    assert(!out.columns.contains("label"))
  }

  test("verification quality: accuracy on held-out alarms is high") {
    val out = service.verify(labeled)
    val acc = out.where(col("prediction") === col("label").cast("double")).count().toDouble /
      out.count()
    assert(acc > 0.8, s"service accuracy $acc")
  }

  test("confidences are well-formed probabilities") {
    val out = service.verify(labeled.limit(1000))
    assert(out.where(col("p_true") < 0 || col("p_true") > 1).count() == 0)
  }
}

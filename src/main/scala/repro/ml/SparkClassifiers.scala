package repro.ml

import org.apache.spark.ml.classification.{LinearSVC, LinearSVCModel, LogisticRegression,
  ProbabilisticClassificationModel, RandomForestClassifier}
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The three Spark ML algorithms the paper used off the shelf (Section 5.3:
  * "For the first 3 we used the readily available implementations from
  * Spark ML"), parameterized by Tables 3–5.
  */
object SparkClassifiers {

  private val pTrueFromProba = udf((v: Vector) => v(1))

  /** Random Forest (Table 3). */
  final case class RandomForest(params: Hyperparams.RandomForestParams = Hyperparams.rf,
                                seed: Long = 42) extends AlarmClassifier {
    val name = "RF"
    def fit(train: DataFrame): AlarmModel = {
      val m = new RandomForestClassifier()
        .setMaxDepth(params.maxDepth)
        .setNumTrees(params.numTrees)
        .setSeed(seed)
        .fit(train)
      ProbabilisticModel(name, m)
    }
  }

  /** RF and LR: Spark models with a class-probability output, whose
    * probability of class 1 is the confidence `p_true`. */
  final case class ProbabilisticModel(name: String,
                                      m: ProbabilisticClassificationModel[Vector, _])
      extends AlarmModel {
    def transform(df: DataFrame): DataFrame =
      m.transform(df)
        .withColumn("p_true", pTrueFromProba(col("probability")))
        .drop("rawPrediction", "probability")
  }

  /** Logistic Regression (Table 5). A touch of L2 keeps the high-cardinality
    * ZIP one-hots from blowing up via complete separation when only a few
    * alarms per ZIP exist (the paper's full-volume data does not face this;
    * Table 5 specifies no regularizer). */
  final case class Logistic(params: Hyperparams.LogisticRegressionParams = Hyperparams.lr,
                            regParam: Double = 1e-3) extends AlarmClassifier {
    val name = "LR"
    def fit(train: DataFrame): AlarmModel = {
      val m = new LogisticRegression()
        .setMaxIter(params.maxIter)
        .setTol(params.tol)
        .setRegParam(regParam)
        .fit(train)
      ProbabilisticModel(name, m)
    }
  }

  /** Linear SVM (Table 4). The paper used mllib's SVMWithSGD (stepSize /
    * miniBatchFraction are SGD knobs); Spark 4 retired that API, so we map
    * onto `LinearSVC` (same linear kernel + squared-L2/hinge objective) and
    * keep maxIter/regParam. The margin is squashed through a sigmoid to get
    * the confidence `p_true` (LinearSVC has no probability output). */
  final case class Svm(params: Hyperparams.SvmParams = Hyperparams.svm,
                       maxIterOverride: Option[Int] = None) extends AlarmClassifier {
    val name = "SVM"
    def fit(train: DataFrame): AlarmModel = {
      val m = new LinearSVC()
        .setMaxIter(maxIterOverride.getOrElse(params.maxIter))
        .setRegParam(params.regParam)
        .fit(train)
      SvmModel(m)
    }
  }

  final case class SvmModel(m: LinearSVCModel) extends AlarmModel {
    val name = "SVM"
    private val pTrueFromMargin = udf((v: Vector) => 1.0 / (1.0 + math.exp(-v(1))))
    def transform(df: DataFrame): DataFrame =
      m.transform(df)
        .withColumn("p_true", pTrueFromMargin(col("rawPrediction")))
        .drop("rawPrediction")
  }
}
